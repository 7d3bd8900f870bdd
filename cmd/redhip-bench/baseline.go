package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"redhip/internal/sim"
	"redhip/internal/workload"
)

// The baseline measurement is deliberately pinned — same geometry,
// workload and reference count in every PR — so that BENCH_baseline.json
// files from different commits are directly comparable. Traces are
// captured once and replayed, so workload generation cost is excluded
// and the number isolates the simulation core.
const (
	baselineWorkload    = "mcf"
	baselineRefsPerCore = 50_000
	baselineRepeats     = 5
)

// baselineEntry is one scheme's best-of-N throughput measurement.
type baselineEntry struct {
	Scheme     string  `json:"scheme"`
	Refs       uint64  `json:"refs"`
	RefsPerSec float64 `json:"refs_per_sec"`
	WallNanos  int64   `json:"wall_nanos"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// baselineFile is the BENCH_baseline.json schema. Environment fields
// are recorded so a regression can be told apart from a machine change.
type baselineFile struct {
	GeneratedAt string          `json:"generated_at"`
	GoVersion   string          `json:"go_version"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	NumCPU      int             `json:"num_cpu"`
	Geometry    string          `json:"geometry"`
	Workload    string          `json:"workload"`
	RefsPerCore uint64          `json:"refs_per_core"`
	Repeats     int             `json:"repeats"`
	Schemes     []baselineEntry `json:"schemes"`
}

// writeBaseline measures single-run simulation throughput per scheme at
// the smoke geometry and writes the JSON file benchmark tracking diffs
// against. Best-of-N (not mean) is reported: the minimum wall time is
// the least noise-contaminated estimate on a shared machine.
func writeBaseline(path string) error {
	cfg := sim.Smoke()
	cfg.RefsPerCore = baselineRefsPerCore

	gen, err := workload.Sources(baselineWorkload, cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		return err
	}
	srcs := make([]workload.Source, cfg.Cores)
	replays := make([]*workload.TraceSource, cfg.Cores)
	for c := range srcs {
		replays[c] = workload.FromTrace(workload.Capture(gen[c], baselineRefsPerCore))
		srcs[c] = replays[c]
	}

	out := baselineFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Geometry:    "smoke",
		Workload:    baselineWorkload,
		RefsPerCore: baselineRefsPerCore,
		Repeats:     baselineRepeats,
	}
	for _, scheme := range []sim.Scheme{sim.Base, sim.ReDHiP, sim.CBF, sim.Oracle} {
		c := cfg
		c.Scheme = scheme
		var best baselineEntry
		for i := 0; i < baselineRepeats; i++ {
			for _, r := range replays {
				r.Rewind()
			}
			// The runs are sequential, so the process-wide allocation
			// counters move for this run alone.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := sim.Run(c, srcs)
			runtime.ReadMemStats(&after)
			if err != nil {
				return fmt.Errorf("baseline %s: %w", scheme, err)
			}
			if best.WallNanos == 0 || res.Perf.WallNanos < best.WallNanos {
				best = baselineEntry{
					Scheme:     scheme.String(),
					Refs:       res.Refs,
					RefsPerSec: res.Perf.RefsPerSec,
					WallNanos:  res.Perf.WallNanos,
					AllocBytes: after.TotalAlloc - before.TotalAlloc,
					Mallocs:    after.Mallocs - before.Mallocs,
				}
			}
		}
		out.Schemes = append(out.Schemes, best)
		fmt.Fprintf(os.Stderr, "baseline %-7s %12.0f refs/s  (%d mallocs, %d B)\n",
			scheme, best.RefsPerSec, best.Mallocs, best.AllocBytes)
	}

	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
