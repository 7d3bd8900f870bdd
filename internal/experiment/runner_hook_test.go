package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"

	"redhip/internal/sim"
)

// TestOnRunHook: every executed run fires OnRun exactly once with the
// run's identity and result; memoised re-requests do not re-fire it.
func TestOnRunHook(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 2_000
	schemes := []sim.Scheme{sim.Base, sim.ReDHiP}

	var mu sync.Mutex
	var updates []RunUpdate
	r := mustRunner(t, Options{
		Base:        cfg,
		Workloads:   []string{"mcf"},
		Parallelism: 1,
		OnRun: func(u RunUpdate) {
			mu.Lock()
			updates = append(updates, u)
			mu.Unlock()
		},
	})
	if _, err := r.SchemeSweep("mcf", schemes); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 {
		t.Fatalf("OnRun fired %d times, want 2", len(updates))
	}
	for i, u := range updates {
		if u.Err != nil || u.Result == nil {
			t.Fatalf("update %d: err=%v result=%v", i, u.Err, u.Result)
		}
		if u.Workload != "mcf" || u.Scheme != schemes[i] {
			t.Fatalf("update %d = %s/%s, want mcf/%s", i, u.Workload, u.Scheme, schemes[i])
		}
		if u.Completed != i+1 {
			t.Fatalf("update %d Completed = %d, want %d", i, u.Completed, i+1)
		}
	}

	// The second sweep is fully memoised: no new hook firings.
	if _, err := r.SchemeSweep("mcf", schemes); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 {
		t.Fatalf("memoised sweep re-fired OnRun: %d updates", len(updates))
	}
}

// TestContextCancellation: a cancelled context stops the runner before
// it executes anything and surfaces the context error.
func TestContextCancellation(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 2_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts

	fired := false
	r := mustRunner(t, Options{
		Base:      cfg,
		Workloads: []string{"mcf"},
		Context:   ctx,
		OnRun:     func(RunUpdate) { fired = true },
	})
	_, err := r.SchemeSweep("mcf", sim.Schemes())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SchemeSweep with cancelled context = %v, want context.Canceled", err)
	}
	if fired {
		t.Fatal("OnRun fired despite cancelled context")
	}
	if n := r.CacheSize(); n != 0 {
		t.Fatalf("cancelled runner memoised %d runs", n)
	}
}

// sweepJobs lists one job per scheme at the runner's base
// configuration: a scheme sweep shaped for the worker pool (r.run),
// which runs each job as its own one-scheme pass.
func sweepJobs(r *Runner, workloadName string, schemes []sim.Scheme) []job {
	jobs := make([]job, len(schemes))
	for i, sc := range schemes {
		jobs[i] = job{workload: workloadName, cfg: r.BaseConfig().WithScheme(sc)}
	}
	return jobs
}

// TestContextCancellationMidSweep: cancelling from the OnRun hook stops
// the remaining runs of the same batch. This is the worker pool's
// contract (one pass per job); SchemeSweep runs the whole sweep as one
// pass, so its cancellation granularity is the pass round, covered by
// TestContextCancellationSinglePass and sim's interrupt test.
func TestContextCancellationMidSweep(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 2_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var completed int
	r := mustRunner(t, Options{
		Base:        cfg,
		Workloads:   []string{"mcf"},
		Parallelism: 1,
		Context:     ctx,
		OnRun: func(u RunUpdate) {
			completed = u.Completed
			cancel() // stop after the first run
		},
	})
	err := r.run(sweepJobs(r, "mcf", sim.Schemes()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel = %v, want context.Canceled", err)
	}
	if completed != 1 {
		t.Fatalf("completed %d runs before cancel took effect, want 1", completed)
	}
	if n := r.CacheSize(); n >= len(sim.Schemes()) {
		t.Fatalf("cancelled sweep still executed all %d runs", n)
	}
}

// TestContextCancellationSinglePass: on the single-pass path the sweep
// is one simulation, so a cancel fired from OnRun lands after the pass
// — its results are kept — but any subsequent sweep fails fast before
// starting a new pass.
func TestContextCancellationSinglePass(t *testing.T) {
	cfg := sim.Smoke()
	cfg.RefsPerCore = 2_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	r := mustRunner(t, Options{
		Base:      cfg,
		Workloads: []string{"mcf"},
		Context:   ctx,
		OnRun:     func(RunUpdate) { cancel() },
	})
	if _, err := r.SchemeSweep("mcf", sim.Schemes()); err != nil {
		t.Fatalf("sweep whose pass completed before the cancel: %v", err)
	}
	if n := r.CacheSize(); n != len(sim.Schemes()) {
		t.Fatalf("completed pass memoised %d runs, want %d", n, len(sim.Schemes()))
	}
	if _, err := r.SchemeSweep("milc", sim.Schemes()); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel sweep = %v, want context.Canceled", err)
	}
}

// countdownCtx stays live for its first left Err calls and reports
// context.Canceled from then on, so a test can land a cancellation on
// a chosen interrupt poll inside a running pass.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.Canceled
}

// TestContextCancellationDuringPass: a context that ends while a
// one-scheme pass is running stops the pass at its next source refill.
// Nothing is memoised or reported, and the caller gets the context's
// error, both for the worker pool and for a one-scheme SchemeSweep.
func TestContextCancellationDuringPass(t *testing.T) {
	cfg := sim.Smoke()
	for _, pool := range []bool{true, false} {
		// Two polls before the pass (the pool's pick-up or the sweep's
		// pre-check, then the first refill), so the third lands mid-run.
		ctx := &countdownCtx{Context: context.Background(), left: 2}
		fired := false
		r := mustRunner(t, Options{
			Base:        cfg,
			Workloads:   []string{"mcf"},
			Parallelism: 1,
			Context:     ctx,
			OnRun:       func(RunUpdate) { fired = true },
		})
		var err error
		if pool {
			err = r.run(sweepJobs(r, "mcf", []sim.Scheme{sim.ReDHiP}))
		} else {
			_, err = r.SchemeSweep("mcf", []sim.Scheme{sim.ReDHiP})
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pool=%v: cancel during the pass = %v, want context.Canceled", pool, err)
		}
		if fired || r.CacheSize() != 0 {
			t.Fatalf("pool=%v: interrupted pass reported (OnRun=%v) or memoised %d runs", pool, fired, r.CacheSize())
		}
	}
}

// TestSchemeSweepPerSchemeErrors: when several schemes of one pass
// fail, each memoised error, each OnRun error and each returned error
// is that scheme's own, never another scheme's. CBF is invalid under
// Exclusive, and so is ReDHiP with a recalibration period of 1.
func TestSchemeSweepPerSchemeErrors(t *testing.T) {
	cfg := sim.Smoke().WithInclusion(sim.Exclusive)
	cfg.RefsPerCore = 2_000
	cfg.RecalPeriod = 1
	schemes := []sim.Scheme{sim.CBF, sim.ReDHiP}
	want := map[sim.Scheme]string{}
	for _, sc := range schemes {
		c := cfg.WithScheme(sc)
		err := c.Validate()
		if err == nil {
			t.Fatalf("%s: configuration unexpectedly valid", sc)
		}
		want[sc] = "mcf/" + sc.String() + ": " + err.Error()
	}
	if want[sim.CBF] == want[sim.ReDHiP] {
		t.Fatal("both schemes fail with the same message; the test cannot tell them apart")
	}

	onRun := map[sim.Scheme]string{}
	r := mustRunner(t, Options{
		Base:        cfg,
		Workloads:   []string{"mcf"},
		Parallelism: 1,
		OnRun:       func(u RunUpdate) { onRun[u.Scheme] = u.Err.Error() },
	})
	if _, err := r.SchemeSweep("mcf", schemes); err == nil || err.Error() != want[sim.CBF] {
		t.Errorf("SchemeSweep error = %v, want %q", err, want[sim.CBF])
	}
	for i, sc := range schemes {
		if onRun[sc] != want[sc] {
			t.Errorf("%s: OnRun error %q, want %q", sc, onRun[sc], want[sc])
		}
		if got := r.errs[sweepJobs(r, "mcf", schemes)[i].key()]; got == nil || got.Error() != want[sc] {
			t.Errorf("%s: memoised error %v, want %q", sc, got, want[sc])
		}
		if _, err := r.SchemeSweep("mcf", []sim.Scheme{sc}); err == nil || err.Error() != want[sc] {
			t.Errorf("%s: returned error %v, want %q", sc, err, want[sc])
		}
	}
}
