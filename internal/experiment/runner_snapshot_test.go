package experiment

import (
	"encoding/json"
	"testing"

	"redhip/internal/sim"
	"redhip/internal/simstate"
)

// snapshotOpts is the tiny-runner geometry with a warmup window so the
// snapshot layer has a boundary to branch at.
func snapshotOpts() Options {
	cfg := sim.Smoke()
	cfg.WarmupRefsPerCore = 6_000
	cfg.RefsPerCore = 8_000
	return Options{
		Base:      cfg,
		Seed:      3,
		Workloads: []string{"mcf", "lbm"},
	}
}

// resultJSON canonicalises a result for comparison. Perf carries
// host-side timings and is excluded from JSON, so this covers exactly
// the deterministic simulation outputs the golden contract pins.
func resultJSON(t *testing.T, res *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sweepVia runs schemes over workloadName either as one SchemeSweep
// pass or through the worker pool (one one-scheme pass per job).
func sweepVia(t *testing.T, r *Runner, pool bool, workloadName string, schemes []sim.Scheme) []*sim.Result {
	t.Helper()
	if !pool {
		res, err := r.SchemeSweep(workloadName, schemes)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	jobs := sweepJobs(r, workloadName, schemes)
	if err := r.run(jobs); err != nil {
		t.Fatal(err)
	}
	out := make([]*sim.Result, len(jobs))
	for i, j := range jobs {
		res, err := r.resultFor(j)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// TestRunnerSnapshotBranchBitIdentical pins the runner-level contract:
// enabling the snapshot store changes nothing about the results, on
// both SchemeSweep's lockstep pass and the worker pool's one-scheme
// passes.
func TestRunnerSnapshotBranchBitIdentical(t *testing.T) {
	schemes := []sim.Scheme{sim.Base, sim.ReDHiP, sim.Oracle}
	for _, pool := range []bool{false, true} {
		name := "single-pass"
		if pool {
			name = "per-scheme"
		}
		t.Run(name, func(t *testing.T) {
			want := sweepVia(t, mustRunner(t, snapshotOpts()), pool, "mcf", schemes)

			snapOpts := snapshotOpts()
			snapOpts.SnapshotCacheBytes = 64 << 20
			snap := mustRunner(t, snapOpts)
			got := sweepVia(t, snap, pool, "mcf", schemes)
			for i := range want {
				if a, b := resultJSON(t, want[i]), resultJSON(t, got[i]); a != b {
					t.Errorf("%s: snapshot-branched result diverged\n got %s\nwant %s", schemes[i], b, a)
				}
			}
			st, ok := snap.SnapshotStats()
			if !ok {
				t.Fatal("SnapshotStats not ok with snapshotting enabled")
			}
			if st.Puts == 0 {
				t.Errorf("snapshot store saw no Puts after a warmed sweep: %+v", st)
			}

			// A second runner sharing the store must restore rather than
			// re-warm, and still match bit-for-bit.
			reuseOpts := snapshotOpts()
			reuseOpts.SnapshotCache = snap.snaps
			reuse := mustRunner(t, reuseOpts)
			again := sweepVia(t, reuse, pool, "mcf", schemes)
			for i := range want {
				if a, b := resultJSON(t, want[i]), resultJSON(t, again[i]); a != b {
					t.Errorf("%s: restored-from-shared-store result diverged", schemes[i])
				}
			}
			st2, _ := reuse.SnapshotStats()
			if st2.Hits <= st.Hits {
				t.Errorf("shared store hits did not grow: %d -> %d", st.Hits, st2.Hits)
			}
			if st2.Restores == 0 {
				t.Errorf("no restores recorded on the reuse pass: %+v", st2)
			}
		})
	}
}

// TestRunnerSnapshotPoolMissCaptures pins the worker pool's snapshot
// branch: a job that misses the store runs cold and captures its warm
// state through the sink (one Put, no restore), the same job on a
// second runner restores it (one restore), and both match a runner
// with no snapshot store bit-for-bit.
func TestRunnerSnapshotPoolMissCaptures(t *testing.T) {
	schemes := []sim.Scheme{sim.ReDHiP}
	want := sweepVia(t, mustRunner(t, snapshotOpts()), true, "mcf", schemes)[0]
	store := simstate.NewStore(64 << 20)
	for i, tc := range []struct {
		name                 string
		puts, hits, restores uint64
	}{
		{"miss", 1, 0, 0},
		{"hit", 1, 1, 1},
	} {
		opts := snapshotOpts()
		opts.SnapshotCache = store
		got := sweepVia(t, mustRunner(t, opts), true, "mcf", schemes)[0]
		if a, b := resultJSON(t, want), resultJSON(t, got); a != b {
			t.Errorf("%s: result diverged from the store-less runner\n got %s\nwant %s", tc.name, b, a)
		}
		st := store.Stats()
		if st.Puts != tc.puts || st.Hits != tc.hits || st.Restores != tc.restores {
			t.Errorf("run %d (%s): store stats %+v, want Puts %d, Hits %d, Restores %d",
				i, tc.name, st, tc.puts, tc.hits, tc.restores)
		}
	}
}

// TestRunnerSnapshotMeasureVariants pins the branching win: measure
// windows of different lengths share one warm lineage (the key zeroes
// RefsPerCore), so the second variant restores instead of re-warming.
func TestRunnerSnapshotMeasureVariants(t *testing.T) {
	store := simstate.NewStore(64 << 20)
	run := func(refs uint64, store *simstate.Store) *sim.Result {
		opts := snapshotOpts()
		opts.Base.RefsPerCore = refs
		opts.SnapshotCache = store
		r := mustRunner(t, opts)
		return sweepVia(t, r, true, "mcf", []sim.Scheme{sim.ReDHiP})[0]
	}
	short := run(8_000, store)
	long := run(12_000, store)
	if short.Refs == long.Refs {
		t.Fatal("variants collapsed to the same measure window")
	}
	st := store.Stats()
	if st.Puts != 1 {
		t.Errorf("Puts = %d, want 1 (one warm lineage across variants)", st.Puts)
	}
	if st.Hits == 0 {
		t.Errorf("second variant did not hit the shared warm state: %+v", st)
	}

	// Each variant must match its own straight-through cold run.
	for _, tc := range []struct {
		refs uint64
		res  *sim.Result
	}{{8_000, short}, {12_000, long}} {
		if a, b := resultJSON(t, run(tc.refs, nil)), resultJSON(t, tc.res); a != b {
			t.Errorf("refs=%d: branched variant diverged from cold run", tc.refs)
		}
	}
}

// TestRunnerSnapshotOptionValidation pins the configuration errors.
func TestRunnerSnapshotOptionValidation(t *testing.T) {
	opts := snapshotOpts()
	opts.SnapshotCache = simstate.NewStore(1 << 20)
	opts.SnapshotCacheBytes = 1 << 20
	if _, err := NewRunner(opts); err == nil {
		t.Fatal("SnapshotCache + SnapshotCacheBytes accepted, want error")
	}
}

// TestRunnerSnapshotDisabledStats pins the ok=false contract.
func TestRunnerSnapshotDisabledStats(t *testing.T) {
	r := mustRunner(t, snapshotOpts())
	if _, ok := r.SnapshotStats(); ok {
		t.Fatal("SnapshotStats ok without a snapshot store")
	}
}
