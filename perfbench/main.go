// Command perfbench is the repository's benchmark. It drives the
// simulator and the serve cluster through their public Go APIs,
// measures host time and memory from outside the program, checks every
// simulated output bit for bit, and prints one JSON result line.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload fig-sweep --seed 7 --seconds 30 --trace 0
//	perfbench -compare old.out new.out
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a CPU-profiled run. See README.md for the workloads and
// the definition of every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric. The tables below are the
// single source of truth for names and units; BENCHMARK.json must list
// the same set (checked by TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"refs_per_s", "refs/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"ttr_p50_ms", "ms", "lower"},
	{"ttr_p90_ms", "ms", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"ok_frac", "ratio", "higher"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"experiment.runs", "count", ""},
		{"experiment.busy_frac", "ratio", ""},
		{"sim.refs", "count", ""},
		{"sim.simulate_s", "s", ""},
		{"sim.generate_s", "s", ""},
		{"sim.restore_s", "s", ""},
		{"sim.ns_per_ref", "ns/ref", ""},
		{"cache.lookups", "count", ""},
		{"cache.ns_per_lookup", "ns/lookup", ""},
		{"core.pt_lookups", "count", ""},
		{"core.skip_ratio", "ratio", ""},
		{"core.recalibrations", "count", ""},
		{"prefetch.useful_ratio", "ratio", ""},
		{"tracestore.materialize_s", "s", ""},
		{"tracestore.materializations", "count", ""},
		{"tracestore.hit_ratio", "ratio", ""},
		{"tracestore.mb", "MiB", ""},
		{"simstate.restores", "count", ""},
		{"simstate.puts", "count", ""},
		{"simstate.hit_ratio", "ratio", ""},
		{"simstate.blob_mb", "MiB", ""},
		{"serve.queue_wait_ms_p50", "ms", ""},
		{"serve.queue_wait_ms_p99", "ms", ""},
		{"serve.exec_ms_p50", "ms", ""},
		{"serve.results_ms_p50", "ms", ""},
		{"serve.results_kb", "KiB", ""},
		{"serve.dedup_ratio", "ratio", ""},
		{"serve.rejects", "count", ""},
		{"cluster.submit_ms_p50", "ms", ""},
		{"cluster.hop_ms_p50", "ms", ""},
		{"cluster.skew", "ratio", ""},
		{"mix.fresh_share", "ratio", ""},
		{"mix.shared_share", "ratio", ""},
		{"mix.repeat_share", "ratio", ""},
		{"runtime.gc_cpu_s", "s", ""},
		{"runtime.alloc_mb", "MiB", ""},
		{"process.cpu_s", "s", ""},
		{"bench.trace_overhead", "ratio", ""},
		{"bench.ttr_samples", "count", ""},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{b, "s", ""})
	}
	return defs
}()

var workloads = map[string]func(runOpts) (*outcome, error){
	"fig-sweep":      runFigSweep,
	"measure-branch": runMeasureBranch,
	"serve-closed":   runServeClosed,
}

// runOpts is what every workload receives.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outcome is what a workload measured. e2e holds the end-to-end
// metrics (untraced runs), layer the per-layer metrics (traced runs).
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
	ops               int // timed operations (ttr samples)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runMeta qualifies a result: comparing two results measured with
// different CPU counts is refused (see -compare).
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Attempted  int     `json:"attempted"`
	Samples    int     `json:"samples"`
	// StealFrac is the share of the host's CPU time a hypervisor took
	// away during the run: wall-time metrics of a run with a high share
	// are slow for reasons outside the program.
	StealFrac float64 `json:"host_steal_frac"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: fig-sweep, measure-branch or serve-closed")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = CPU-profiled run reporting the per-layer metrics")
		compare = flag.Bool("compare", false, "compare two saved outputs (old new) and refuse if they ran on different CPU counts")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two saved outputs"))
		}
		if err := compareOutputs(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*wl]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q", *wl))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	steal0, total0 := hostCPUTicks()
	out, err := run(runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fatal(err)
	}
	steal1, total1 := hostCPUTicks()

	defs, values := endToEnd, out.e2e
	if *trace == 1 {
		defs, values = perLayer, out.layer
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not measure %s", *wl, d.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-30s %16.6g %s\n", d.name, v, d.unit)
	}
	meta := runMeta{
		Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Attempted: out.attempted, Samples: out.ops,
		StealFrac: ratio(steal1-steal0, total1-total0),
	}
	printJSON(map[string]runMeta{"meta": meta})
	printJSON(line)
	if !line.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// compareOutputs prints new/old per metric for two saved stdout
// captures, refusing when the runs saw different CPU counts.
func compareOutputs(oldPath, newPath string) error {
	om, ol, err := readOutput(oldPath)
	if err != nil {
		return err
	}
	nm, nl, err := readOutput(newPath)
	if err != nil {
		return err
	}
	if om.NumCPU != nm.NumCPU || om.GOMAXPROCS != nm.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: %s ran on %d CPUs (GOMAXPROCS %d), %s on %d (GOMAXPROCS %d)",
			oldPath, om.NumCPU, om.GOMAXPROCS, newPath, nm.NumCPU, nm.GOMAXPROCS)
	}
	if om.Workload != nm.Workload || om.Trace != nm.Trace {
		return fmt.Errorf("refusing to compare: different workload or trace mode (%s/%v vs %s/%v)",
			om.Workload, om.Trace, nm.Workload, nm.Trace)
	}
	names := make([]string, 0, len(nl.Metrics))
	for n := range nl.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, ok := ol.Metrics[n]
		if !ok {
			continue
		}
		ratio := "-"
		if o.Value != 0 {
			ratio = strconv.FormatFloat(nl.Metrics[n].Value/o.Value, 'f', 3, 64)
		}
		fmt.Printf("%-30s %14.6g -> %14.6g %s  (x%s)\n", n, o.Value, nl.Metrics[n].Value, o.Unit, ratio)
	}
	return nil
}

func readOutput(path string) (runMeta, resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return runMeta{}, resultLine{}, err
	}
	defer f.Close()
	var meta *runMeta
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		t := sc.Text()
		if strings.HasPrefix(t, `{"meta":`) {
			var m map[string]runMeta
			if err := json.Unmarshal([]byte(t), &m); err != nil {
				return runMeta{}, resultLine{}, fmt.Errorf("%s: meta line: %w", path, err)
			}
			mm := m["meta"]
			meta = &mm
		}
		if t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return runMeta{}, resultLine{}, err
	}
	if meta == nil {
		return runMeta{}, resultLine{}, fmt.Errorf("%s: no meta line (not a perfbench output?)", path)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return runMeta{}, resultLine{}, fmt.Errorf("%s: result line: %w", path, err)
	}
	return *meta, line, nil
}

// --- shared measurement helpers ----------------------------------------------

// percentile interpolates linearly between the order statistics of xs
// (which it sorts in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup runs a set-up routine n times and returns the last
// repetition's product and the median wall time in seconds. Each
// earlier product is released (by discard, when non-nil) and collected
// before the next repetition, so repeating the set-up does not raise
// peak_rss_mb.
func timeSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last, none T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			if discard != nil {
				discard(last)
			}
			last = none
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return none, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// How many times each workload sets up per run; the median is setup_s.
// Booting the cluster takes about a second, materialising streams a
// tenth of that.
const (
	offlineSetupRepeats = 5
	serveSetupRepeats   = 3
)

// peakRSSMiB reads the process high-water resident set size.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostCPUTicks reads the host's stolen and total CPU ticks from
// /proc/stat (zero where it is unavailable).
func hostCPUTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// "cpu" user nice system idle iowait irq softirq steal guest...;
	// guest time is already inside user and nice.
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rtCounters are the process-wide counters a traced run differences.
type rtCounters struct {
	gcCPU, allocBytes, procCPU float64
}

func readRT() rtCounters {
	rtSamples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(rtSamples)
	var c rtCounters
	if rtSamples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = rtSamples[0].Value.Float64()
	}
	if rtSamples[1].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = float64(rtSamples[1].Value.Uint64())
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.procCPU = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return c
}

// addRT accumulates the counter deltas since start into layer.
func addRT(layer map[string]float64, start rtCounters) {
	end := readRT()
	layer["runtime.gc_cpu_s"] += end.gcCPU - start.gcCPU
	layer["runtime.alloc_mb"] += (end.allocBytes - start.allocBytes) / (1 << 20)
	layer["process.cpu_s"] += end.procCPU - start.procCPU
}

// newLayerMap returns a per-layer map with every metric at zero: a
// layer a workload leaves idle reports 0.
func newLayerMap() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
