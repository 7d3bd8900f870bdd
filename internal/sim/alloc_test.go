package sim

import (
	"testing"

	"redhip/internal/redhipassert"
	"redhip/internal/trace"
	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// skipUnderAsserts documents the build-tag trade: redhipassert builds
// re-validate structural invariants after every mutation (Recalibrate
// cross-checks the whole table against the tag array, which allocates
// scratch), so the allocation-free guarantee is a production-build
// property and these tests only pin it there.
func skipUnderAsserts(t *testing.T) {
	t.Helper()
	if redhipassert.Enabled {
		t.Skip("redhipassert build trades allocation-freedom for invariant validation")
	}
}

// TestRunLoopAllocationFree pins the steady-state contract of the
// simulation core: once the engine is built (scheduler tree, prefetch
// filter and recalibration scratch buffers are all preallocated), the
// reference loop performs zero heap allocations regardless of scheme.
// Sources are in-memory trace replays so workload generation cannot
// hide an engine allocation (or contribute one of its own).
func TestRunLoopAllocationFree(t *testing.T) {
	skipUnderAsserts(t)
	for _, scheme := range []Scheme{Base, ReDHiP, CBF, Oracle} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := Smoke()
			cfg.Scheme = scheme
			cfg.RefsPerCore = 20_000

			gen, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			srcs := make([]workload.Source, cfg.Cores)
			replays := make([]*workload.TraceSource, cfg.Cores)
			for c := range srcs {
				tr := workload.Capture(gen[c], int(cfg.RefsPerCore))
				replays[c] = workload.FromTrace(tr)
				srcs[c] = replays[c]
			}
			e, err := newEngine(cfg, srcs, nil)
			if err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun warms up with one untimed call, which absorbs
			// any lazy first-use growth; the measured runs must then be
			// allocation-free.
			if n := testing.AllocsPerRun(3, func() {
				for _, r := range replays {
					r.Rewind()
				}
				e.beginWindow(cfg.RefsPerCore)
				e.runWindow()
			}); n != 0 {
				t.Errorf("%s steady-state loop allocated %.0f times per run, want 0", scheme, n)
			}
		})
	}
}

// batchOnlySource hides TraceSource's Window method, forcing the engine
// onto the copying NextBatch refill path that live generators use.
type batchOnlySource struct{ ts *workload.TraceSource }

func (b batchOnlySource) Name() string                     { return b.ts.Name() }
func (b batchOnlySource) CPI() float64                     { return b.ts.CPI() }
func (b batchOnlySource) Next(rec *trace.Record) bool      { return b.ts.Next(rec) }
func (b batchOnlySource) NextBatch(buf []trace.Record) int { return b.ts.NextBatch(buf) }

// TestBatchRefillAllocationFree pins the copying refill path: once the
// engine's per-core record buffers exist, draining a BatchSource through
// NextBatch block refills performs zero heap allocations. The sources
// deliberately do not expose Window, so this exercises exactly the code
// path live generator sources take.
func TestBatchRefillAllocationFree(t *testing.T) {
	skipUnderAsserts(t)
	cfg := Smoke()
	cfg.RefsPerCore = 20_000

	gen, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]workload.Source, cfg.Cores)
	replays := make([]*workload.TraceSource, cfg.Cores)
	for c := range srcs {
		tr := workload.Capture(gen[c], int(cfg.RefsPerCore))
		replays[c] = workload.FromTrace(tr)
		srcs[c] = batchOnlySource{replays[c]}
	}
	e, err := newEngine(cfg, srcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() {
		for _, r := range replays {
			r.Rewind()
		}
		e.beginWindow(cfg.RefsPerCore)
		e.runWindow()
	}); n != 0 {
		t.Errorf("batch refill loop allocated %.0f times per run, want 0", n)
	}
}

// TestMaterializedReplayAllocationFree pins the zero-copy replay path:
// an engine fed from a trace-store Materialized entry (the scheme-sweep
// configuration) runs its reference loop without heap allocations —
// Window refills hand out slice views of the shared backing records.
func TestMaterializedReplayAllocationFree(t *testing.T) {
	skipUnderAsserts(t)
	cfg := Smoke()
	cfg.RefsPerCore = 20_000

	store := tracestore.New(0)
	mat, err := store.Get(tracestore.Key{
		Workload:    "mcf",
		Cores:       cfg.Cores,
		Scale:       cfg.WorkloadScale,
		Seed:        1,
		RefsPerCore: cfg.WarmupRefsPerCore + cfg.RefsPerCore,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs := mat.Sources()
	replays := make([]*workload.TraceSource, len(srcs))
	for i, s := range srcs {
		replays[i] = s.(*workload.TraceSource)
	}
	e, err := newEngine(cfg, srcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() {
		for _, r := range replays {
			r.Rewind()
		}
		e.beginWindow(cfg.RefsPerCore)
		e.runWindow()
	}); n != 0 {
		t.Errorf("materialised replay loop allocated %.0f times per run, want 0", n)
	}
}
