package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"redhip/internal/experiment"
	"redhip/internal/sim"
	"redhip/internal/simstate"
	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// refJob is one (workload, config) simulation an iteration executes.
type refJob struct {
	workload string
	cfg      sim.Config
}

// offlineWorkload is a workload that drives experiment.Runner directly:
// each timed operation is one iteration, a complete regeneration with
// fresh runners over streams materialised during set-up.
type offlineWorkload struct {
	name string
	// jobs lists every distinct simulation one iteration executes; the
	// reference recomputes exactly these with independent sim.Run calls.
	jobs []refJob
	// iterate runs one iteration. It returns the warm-state store it
	// used, or nil.
	iterate func(seed uint64, traces *tracestore.Store, onRun func(experiment.RunUpdate)) (*simstate.Store, error)
}

// fig-sweep: what redhip-bench users run. Scaled cache geometry with a
// quarter of the preset's references per core, so one run holds
// several complete regenerations.
var (
	figSweepWorkloads = []string{"mcf", "cactusADM"} // pointer-chasing, cache-friendly
	figSweepRefs      = uint64(100_000)
)

func figSweepBase() sim.Config {
	c := sim.Scaled()
	c.RefsPerCore = figSweepRefs
	return c
}

// figSweepJobs mirrors the runs Figs 6-8 and 12-15 execute (see
// internal/experiment/figures.go), memoised duplicates removed.
func figSweepJobs() []refJob {
	base := figSweepBase()
	var jobs []refJob
	for _, wl := range figSweepWorkloads {
		add := func(c sim.Config) { jobs = append(jobs, refJob{wl, c}) }
		noPF := func(s sim.Scheme) sim.Config { return base.WithScheme(s).WithPrefetch(false) }
		for _, s := range sim.Schemes() { // Figs 6-8
			add(noPF(s))
		}
		for _, p := range experiment.Fig12RecalPeriods {
			c := noPF(sim.ReDHiP)
			c.IgnorePredictionOverhead = true
			c.RecalPeriod = p / base.WorkloadScale
			if p > 0 && c.RecalPeriod == 0 {
				c.RecalPeriod = 1
			}
			add(c)
		}
		for _, pol := range []sim.InclusionPolicy{sim.Hybrid, sim.Exclusive} { // Fig 13
			add(noPF(sim.Base).WithInclusion(pol))
			add(noPF(sim.ReDHiP).WithInclusion(pol))
		}
		add(base.WithScheme(sim.Base).WithPrefetch(true)) // Figs 14-15
		add(base.WithScheme(sim.ReDHiP).WithPrefetch(true))
	}
	return jobs
}

func figSweepIterate(seed uint64, traces *tracestore.Store, onRun func(experiment.RunUpdate)) (*simstate.Store, error) {
	r, err := experiment.NewRunner(experiment.Options{
		Base:        figSweepBase(),
		Seed:        seed,
		Workloads:   figSweepWorkloads,
		Parallelism: runtime.NumCPU(),
		TraceCache:  traces,
		OnRun:       onRun,
	})
	if err != nil {
		return nil, err
	}
	for _, fig := range []func() (*experiment.Figure, error){
		r.Fig6Speedup, r.Fig7DynamicEnergy, r.Fig8Metric,
		r.Fig12RecalPeriod, r.Fig13Inclusion,
		r.Fig14PrefetchSpeedup, r.Fig15PrefetchEnergy,
	} {
		if _, err := fig(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// measure-branch: a warmup-heavy sweep of measure-window lengths. Each
// iteration starts a fresh snapshot store, so every (workload, scheme)
// lineage warms once and the other windows restore from its blob.
var (
	branchWorkloads = []string{"mcf", "milc"}
	branchWarmup    = uint64(40_000)
	branchWindows   = []uint64{10_000, 20_000, 40_000}
)

// branchSnapshotBytes holds every blob of one iteration.
const branchSnapshotBytes = 512 << 20

func branchBase(window uint64) sim.Config {
	c := sim.Scaled()
	c.WarmupRefsPerCore = branchWarmup
	c.RefsPerCore = window
	return c
}

func branchJobs() []refJob {
	var jobs []refJob
	for _, m := range branchWindows {
		for _, wl := range branchWorkloads {
			for _, s := range sim.Schemes() {
				jobs = append(jobs, refJob{wl, branchBase(m).WithScheme(s)})
			}
		}
	}
	return jobs
}

func branchIterate(seed uint64, traces *tracestore.Store, onRun func(experiment.RunUpdate)) (*simstate.Store, error) {
	snaps := simstate.NewStore(branchSnapshotBytes)
	for _, m := range branchWindows {
		// Parallelism 1 leaves the single-pass engine's automatic
		// intra-pass parallelism all the CPUs.
		r, err := experiment.NewRunner(experiment.Options{
			Base:          branchBase(m),
			Seed:          seed,
			Workloads:     branchWorkloads,
			Parallelism:   1,
			TraceCache:    traces,
			SnapshotCache: snaps,
			OnRun:         onRun,
		})
		if err != nil {
			return nil, err
		}
		for _, wl := range branchWorkloads {
			if _, err := r.SchemeSweep(wl, sim.Schemes()); err != nil {
				return nil, err
			}
		}
	}
	return snaps, nil
}

func runFigSweep(o runOpts) (*outcome, error) {
	return runOffline(offlineWorkload{name: "fig-sweep", jobs: figSweepJobs(), iterate: figSweepIterate}, o)
}

func runMeasureBranch(o runOpts) (*outcome, error) {
	return runOffline(offlineWorkload{name: "measure-branch", jobs: branchJobs(), iterate: branchIterate}, o)
}

// traceKeys lists the distinct streams the jobs replay.
func traceKeys(jobs []refJob, seed uint64) []tracestore.Key {
	seen := map[tracestore.Key]bool{}
	var keys []tracestore.Key
	for _, j := range jobs {
		k := tracestore.Key{
			Workload: j.workload, Cores: j.cfg.Cores, Scale: j.cfg.WorkloadScale,
			Seed: seed, RefsPerCore: j.cfg.WarmupRefsPerCore + j.cfg.RefsPerCore,
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// iteration is what one timed operation produced.
type iteration struct {
	wall    time.Duration
	fps     []string
	errs    int
	traced  bool
	results []*sim.Result
}

func runOffline(w offlineWorkload, o runOpts) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: newLayerMap()}
	seed := o.seed
	if seed == 0 {
		seed = 1 // experiment.Options reads a zero seed as 1
	}

	// Set-up: materialise every stream an iteration replays. The store
	// is shared by every iteration of the run, so the timed work is
	// replay (one materialisation, many replays).
	keys := traceKeys(w.jobs, seed)
	traces, setupS, err := timeSetup(offlineSetupRepeats, func() (*tracestore.Store, error) {
		st := tracestore.New(0)
		for _, k := range keys {
			if _, err := st.Get(k); err != nil {
				return nil, fmt.Errorf("materialise %s: %w", k, err)
			}
		}
		return st, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setupS

	var prof *profiler
	if o.trace {
		prof = newProfiler()
		defer prof.stopIfActive()
	}
	var iters []iteration
	var tracedTS tracestore.Stats
	var snapStats simstate.StoreStats
	var blobMB float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		// Iteration 0 warms the heap and the caches and is not timed. A
		// traced run then alternates profiled and untraced iterations so
		// bench.trace_overhead compares like with like.
		traced := o.trace && i%2 == 1
		if time.Now().After(deadline) && i >= 2 && (!o.trace || i >= 3) {
			break
		}
		var mu sync.Mutex
		it := iteration{traced: traced}
		onRun := func(u experiment.RunUpdate) {
			mu.Lock()
			defer mu.Unlock()
			if u.Err != nil {
				it.errs++
				return
			}
			it.results = append(it.results, u.Result)
		}
		ts0 := traces.Stats()
		if traced {
			if err := prof.begin(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		snaps, err := w.iterate(seed, traces, onRun)
		it.wall = time.Since(t0)
		if traced {
			if err := prof.end(out.layer); err != nil {
				return nil, err
			}
			d := traces.Stats().Delta(ts0)
			tracedTS.Hits += d.Hits
			tracedTS.Misses += d.Misses
			tracedTS.Materializations += d.Materializations
			tracedTS.MaterializeNanos += d.MaterializeNanos
			if snaps != nil {
				st := snaps.Stats()
				snapStats.Hits += st.Hits
				snapStats.Misses += st.Misses
				snapStats.Puts += st.Puts
				snapStats.Restores += st.Restores
				blobMB = max(blobMB, float64(st.Bytes)/(1<<20))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %v\n", w.name, i, err)
			it.errs++
		}
		for _, res := range it.results {
			it.fps = append(it.fps, fingerprint(res))
		}
		iters = append(iters, it)
	}
	out.e2e["peak_rss_mb"] = peakRSSMiB()

	// Correctness: every iteration must reproduce the expected multiset
	// of result fingerprints exactly.
	want, err := expectedFingerprints(w, seed)
	if err != nil {
		return nil, err
	}
	for i, it := range iters {
		bad := missing(want, it.fps)
		out.attempted += len(want)
		out.failed += bad
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %d of %d results differ from the reference (%d run errors)\n",
				w.name, i, bad, len(want), it.errs)
		}
	}
	out.ops = len(iters) - 1

	// Rates are medians over operations, so one operation slowed by a
	// noisy neighbour does not move the run's figure.
	var ttr, refRates, opRates []float64
	var untracedWall, tracedWall float64
	var nUntraced, nTraced int
	var counters simCounters
	for _, it := range iters[1:] {
		secs := it.wall.Seconds()
		if it.traced {
			tracedWall += secs
			nTraced++
			for _, res := range it.results {
				counters.add(res)
			}
			continue
		}
		var r uint64
		for _, res := range it.results {
			r += res.Refs
		}
		ttr = append(ttr, secs*1000)
		refRates = append(refRates, float64(r)/secs)
		opRates = append(opRates, 1/secs)
		untracedWall += secs
		nUntraced++
	}
	out.e2e["refs_per_s"] = median(refRates)
	out.e2e["jobs_per_s"] = median(opRates)
	out.e2e["ttr_p50_ms"] = percentile(append([]float64(nil), ttr...), 50)
	out.e2e["ttr_p90_ms"] = percentile(ttr, 90)
	out.e2e["ok_frac"] = 1 - ratio(float64(out.failed), float64(out.attempted))

	if o.trace {
		l := out.layer
		prof.report(l)
		counters.report(l, prof.kernelCPU())
		l["experiment.busy_frac"] = ratio(counters.wallS, tracedWall*float64(runtime.NumCPU()))
		l["tracestore.materialize_s"] = float64(tracedTS.MaterializeNanos) / 1e9
		l["tracestore.materializations"] = float64(tracedTS.Materializations)
		l["tracestore.hit_ratio"] = ratio(float64(tracedTS.Hits), float64(tracedTS.Hits+tracedTS.Misses))
		l["tracestore.mb"] = float64(traces.Stats().Bytes) / (1 << 20)
		l["simstate.restores"] = float64(snapStats.Restores)
		l["simstate.puts"] = float64(snapStats.Puts)
		l["simstate.hit_ratio"] = ratio(float64(snapStats.Hits), float64(snapStats.Hits+snapStats.Misses))
		l["simstate.blob_mb"] = blobMB
		l["bench.trace_overhead"] = ratio(tracedWall/float64(nTraced), untracedWall/float64(nUntraced)) - 1
		l["bench.ttr_samples"] = float64(len(iters) - 1)
	}
	return out, nil
}

// simCounters sums the simulator's own counters over a set of results.
type simCounters struct {
	runs, wallS, refs, simulateS, generateS, restoreS       float64
	lookups, ptLookups, trueNeg, recals, pfIssued, pfUseful float64
}

func (c *simCounters) add(res *sim.Result) {
	c.runs++
	c.wallS += float64(res.Perf.WallNanos) / 1e9
	c.refs += float64(res.Refs)
	c.simulateS += float64(res.Perf.SimulateNanos) / 1e9
	c.generateS += float64(res.Perf.GenerateNanos) / 1e9
	c.restoreS += float64(res.Perf.RestoreNanos) / 1e9
	for _, lv := range res.Levels {
		c.lookups += float64(lv.Lookups)
	}
	c.ptLookups += float64(res.Pred.Lookups)
	c.trueNeg += float64(res.Pred.TrueNegative)
	c.recals += float64(res.Pred.Recalibrations)
	c.pfIssued += float64(res.Prefetch.Issued)
	c.pfUseful += float64(res.Prefetch.Useful)
}

// report writes the counters, and the ratios derived from them and
// from the CPU buckets already in l, into the per-layer map.
func (c *simCounters) report(l map[string]float64, kernelCPU float64) {
	l["experiment.runs"] = c.runs
	l["sim.refs"] = c.refs
	l["sim.simulate_s"] = c.simulateS
	l["sim.generate_s"] = c.generateS
	l["sim.restore_s"] = c.restoreS
	l["sim.ns_per_ref"] = ratio(kernelCPU*1e9, c.refs)
	l["cache.lookups"] = c.lookups
	l["cache.ns_per_lookup"] = ratio(l["cache.cpu_s"]*1e9, c.lookups)
	l["core.pt_lookups"] = c.ptLookups
	l["core.skip_ratio"] = ratio(c.trueNeg, c.ptLookups)
	l["core.recalibrations"] = c.recals
	l["prefetch.useful_ratio"] = ratio(c.pfUseful, c.pfIssued)
}

// fingerprint hashes a result the way the golden tests do: FNV-64a of
// its JSON, which covers every simulated output and excludes Perf.
func fingerprint(res *sim.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("marshal result: %v", err)) // Result is plain data
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// expectedFingerprints returns the sorted fingerprints an iteration
// must reproduce: the recorded values for the default seed, otherwise
// an untimed reference of independent per-scheme sim.Run calls over
// live generators (no trace store, no single-pass engine, no
// snapshots).
func expectedFingerprints(w offlineWorkload, seed uint64) ([]string, error) {
	if rec, ok := recordedFingerprints[w.name]; ok && seed == recordedSeed {
		return rec, nil
	}
	return referenceFingerprints(w.jobs, seed)
}

func referenceFingerprints(jobs []refJob, seed uint64) ([]string, error) {
	fps := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	work := make(chan int)
	var wg sync.WaitGroup
	for n := runtime.NumCPU(); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fps[i], errs[i] = referenceFingerprint(jobs[i], seed)
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(fps)
	return fps, nil
}

func referenceFingerprint(j refJob, seed uint64) (string, error) {
	srcs, err := workload.Sources(j.workload, j.cfg.Cores, j.cfg.WorkloadScale, seed)
	if err != nil {
		return "", err
	}
	res, err := sim.Run(j.cfg, srcs)
	if err != nil {
		return "", fmt.Errorf("reference %s/%s: %w", j.workload, j.cfg.Scheme, err)
	}
	res.Workload = j.workload
	return fingerprint(res), nil
}

// missing counts the expected fingerprints absent from got (multiset
// difference), so a wrong, lost or failed result each count once.
func missing(want, got []string) int {
	have := map[string]int{}
	for _, g := range got {
		have[g]++
	}
	n := 0
	for _, w := range want {
		if have[w] > 0 {
			have[w]--
		} else {
			n++
		}
	}
	return n
}
