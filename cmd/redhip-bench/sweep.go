package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"redhip/internal/experiment"
	"redhip/internal/sim"
	"redhip/internal/simstate"
	"redhip/internal/tracestore"
)

// The sweep benchmark measures what the trace store and the
// single-pass engine exist for: one workload simulated under every
// scheme, end to end, as one SchemeSweep (one lockstep pass drives
// every scheme's back half). Three arms:
//
//   - live: every pass regenerates the reference stream from scratch
//     (DisableTraceCache).
//   - multi: the trace store already holds the stream, the regime
//     figure-scale sessions run in (every sensitivity sweep — PT size,
//     recal period, inclusion — re-simulates the same (workload, seed,
//     scale, refs) key dozens of times, so the one materialisation is
//     amortised to nothing), so the pass replays it.
//   - snap: multi plus a warmed snapshot store — every scheme's
//     warm state was captured once (untimed), so each repeat restores
//     the engines at the warmup/measure boundary and simulates only
//     the measure window. With warmup at 50% of the references this
//     arm's ceiling is ~2x over multi; it is the regime measure-phase
//     ablations (recal period, adaptive knobs, measure length) run in.
//
// Each repeat uses a fresh runner so result memoisation cannot short-
// circuit the simulations; the multi and snap arms share one
// caller-owned store across runners. Arms are interleaved within each
// repeat so slow drift on a shared machine biases neither side, and
// best-of-N is reported per arm (the minimum is the least
// noise-contaminated estimate). Every arm's intra-pass parallelism is
// the machine (IntraParallelism 0 = auto with Parallelism 1).
//
// Cache counters are per-arm DELTAS of the store's cumulative stats
// (tracestore.Stats.Delta), snapshotted around the best repeat's run.
// The raw counters accumulate for the store's lifetime, so only a
// delta says what one repeat did.
const (
	sweepWorkload    = "soplex"
	sweepRefsPerCore = 50_000
	// sweepWarmupPerCore puts the warmup/measure split at 50% — the
	// warmup-heavy shape where the snap arm's skipped warmup walk is
	// half the simulation.
	sweepWarmupPerCore = 50_000
	sweepRepeats       = 9
)

// sweepArm is one side of the comparison, best-of-N end-to-end.
type sweepArm struct {
	WallNanos     int64   `json:"wall_nanos"`
	RefsPerSec    float64 `json:"refs_per_sec"`
	GenerateNanos int64   `json:"generate_nanos"`
	SimulateNanos int64   `json:"simulate_nanos"`
	// Cache counters (cached arms only): the DELTA the arm's best
	// repeat moved the store's counters by. Misses is the number of
	// generations that repeat actually ran — 0, as the store was
	// warmed before timing started.
	Cache *tracestore.Stats `json:"cache,omitempty"`
	// Snapshots (snap arm only) is the warm-state store's counter delta
	// over the best repeat: all Hits and Restores, no Misses, because
	// the store was warmed before timing started.
	Snapshots *simstate.StoreStats `json:"snapshots,omitempty"`
}

// sweepFile is the sweep-throughput JSON schema, uploaded next to
// BENCH_baseline.json in CI.
type sweepFile struct {
	GeneratedAt   string   `json:"generated_at"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	NumCPU        int      `json:"num_cpu"`
	Geometry      string   `json:"geometry"`
	Workload      string   `json:"workload"`
	RefsPerCore   uint64   `json:"refs_per_core"`
	WarmupPerCore uint64   `json:"warmup_refs_per_core"`
	Schemes       []string `json:"schemes"`
	Repeats       int      `json:"repeats"`
	Live          sweepArm `json:"live"`
	Multi         sweepArm `json:"multi"`
	Snap          sweepArm `json:"snap"`
	// MultiSpeedup is live/multi: what replaying the stored trace
	// saves over regenerating it, with the pass otherwise identical.
	MultiSpeedup float64 `json:"multi_speedup"`
	// SnapSpeedup is multi/snap: the snapshot branch layer's
	// contribution alone — warmup skipped, everything else identical.
	SnapSpeedup float64 `json:"snap_speedup"`
}

// writeSweepBench runs the three arms and writes the comparison JSON.
func writeSweepBench(path string) error {
	cfg := sim.Smoke()
	cfg.RefsPerCore = sweepRefsPerCore
	cfg.WarmupRefsPerCore = sweepWarmupPerCore
	schemes := sim.Schemes()
	totalRefs := uint64(cfg.Cores) * (cfg.WarmupRefsPerCore + cfg.RefsPerCore) * uint64(len(schemes))
	// The snap arm walks only the measure window; its throughput is
	// still normalised to the refs the sweep answers for.

	// runOnce times one full sweep on a fresh runner; a nil store means
	// live regeneration, and snaps enables warm-state branching. The
	// returned Stats is the store's counter delta across the run (zero
	// when store is nil).
	runOnce := func(store *tracestore.Store, snaps *simstate.Store) (int64, tracestore.Stats, *experiment.Runner, []*sim.Result, error) {
		runner, err := experiment.NewRunner(experiment.Options{
			Base:              cfg,
			Seed:              1,
			Workloads:         []string{sweepWorkload},
			Parallelism:       1,
			DisableTraceCache: store == nil,
			TraceCache:        store,
			SnapshotCache:     snaps,
		})
		if err != nil {
			return 0, tracestore.Stats{}, nil, nil, err
		}
		var before tracestore.Stats
		if store != nil {
			before = store.Stats()
		}
		start := time.Now()
		res, err := runner.SchemeSweep(sweepWorkload, schemes)
		wall := time.Since(start).Nanoseconds()
		var delta tracestore.Stats
		if store != nil {
			delta = store.Stats().Delta(before)
		}
		return wall, delta, runner, res, err
	}

	// measure folds one repeat into the arm's best-of record, returning
	// whether this repeat was the new best.
	measure := func(arm *sweepArm, wall int64, delta tracestore.Stats, cached bool, r *experiment.Runner) bool {
		if arm.WallNanos != 0 && wall >= arm.WallNanos {
			return false
		}
		gen, simN := r.PhaseNanos()
		*arm = sweepArm{
			WallNanos:     wall,
			RefsPerSec:    float64(totalRefs) / (float64(wall) / 1e9),
			GenerateNanos: gen,
			SimulateNanos: simN,
		}
		if cached {
			arm.Cache = &delta
		}
		return true
	}

	var live, multi, snap sweepArm
	var liveRes, multiRes, snapRes []*sim.Result
	warmStore := tracestore.New(0)
	snapStore := simstate.NewStore(0)

	// Warm the shared store once, untimed, so every multi repeat
	// replays; the same pass captures every scheme's warm-state blob,
	// so every snap repeat restores.
	if _, _, _, _, err := runOnce(warmStore, snapStore); err != nil {
		return fmt.Errorf("store warmup: %w", err)
	}
	if st := snapStore.Stats(); st.Puts != uint64(len(schemes)) {
		return fmt.Errorf("snapshot warmup captured %d blobs, want %d", st.Puts, len(schemes))
	}

	for i := 0; i < sweepRepeats; i++ {
		wall, delta, r, res, err := runOnce(nil, nil)
		if err != nil {
			return fmt.Errorf("live arm: %w", err)
		}
		if measure(&live, wall, delta, false, r) {
			liveRes = res
		}

		wall, delta, r, res, err = runOnce(warmStore, nil)
		if err != nil {
			return fmt.Errorf("multi arm: %w", err)
		}
		if measure(&multi, wall, delta, true, r) {
			multiRes = res
		}

		snapBefore := snapStore.Stats()
		wall, delta, r, res, err = runOnce(warmStore, snapStore)
		if err != nil {
			return fmt.Errorf("snap arm: %w", err)
		}
		if measure(&snap, wall, delta, true, r) {
			snapRes = res
			snapDelta := snapStore.Stats().Delta(snapBefore)
			snap.Snapshots = &snapDelta
		}
	}

	// Replay and the snapshot branch must be invisible in the results,
	// not just fast.
	for i, sc := range schemes {
		if liveRes[i].String() != multiRes[i].String() {
			return fmt.Errorf("%s: replayed sweep diverged from live generation:\n  live:  %s\n  multi: %s",
				sc, liveRes[i], multiRes[i])
		}
		if liveRes[i].String() != snapRes[i].String() {
			return fmt.Errorf("%s: snapshot-branched sweep diverged from live generation:\n  live: %s\n  snap: %s",
				sc, liveRes[i], snapRes[i])
		}
	}
	if multi.Cache == nil || multi.Cache.Misses != 0 || multi.Cache.Hits != 1 {
		return fmt.Errorf("multi arm should replay with exactly one store hit per pass: %+v", multi.Cache)
	}
	if snap.Snapshots == nil || snap.Snapshots.Misses != 0 || snap.Snapshots.Hits != uint64(len(schemes)) {
		return fmt.Errorf("snap arm should restore every scheme from the warmed snapshot store: %+v", snap.Snapshots)
	}
	if snap.Snapshots.Restores != uint64(len(schemes)) {
		return fmt.Errorf("snap arm recorded %d restores, want %d", snap.Snapshots.Restores, len(schemes))
	}

	out := sweepFile{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Geometry:      "smoke",
		Workload:      sweepWorkload,
		RefsPerCore:   sweepRefsPerCore,
		WarmupPerCore: sweepWarmupPerCore,
		Repeats:       sweepRepeats,
		Live:          live,
		Multi:         multi,
		Snap:          snap,
		MultiSpeedup:  float64(live.WallNanos) / float64(multi.WallNanos),
		SnapSpeedup:   float64(multi.WallNanos) / float64(snap.WallNanos),
	}
	for _, sc := range schemes {
		out.Schemes = append(out.Schemes, sc.String())
	}
	fmt.Fprintf(os.Stderr,
		"sweep %s x%d schemes: live %.3fs, multi %.3fs (%.2fx live), snap %.3fs (%.2fx multi)\n",
		sweepWorkload, len(schemes),
		float64(live.WallNanos)/1e9,
		float64(multi.WallNanos)/1e9, out.MultiSpeedup,
		float64(snap.WallNanos)/1e9, out.SnapSpeedup)

	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
