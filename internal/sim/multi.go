package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"redhip/internal/workload"
)

// MultiOptions tune a RunMultiOpt pass without affecting its results:
// every knob here changes wall time and goroutine count only. The
// simulated outcome is pinned by the golden fingerprint suite to be
// bit-identical at any parallelism.
type MultiOptions struct {
	// Parallelism bounds the worker goroutines that advance per-scheme
	// back halves (0 = GOMAXPROCS). It is clamped to the scheme count;
	// the surplus is granted to the engines as set-partitioned
	// recalibration fan-out instead. A one-scheme pass runs on the
	// calling goroutine, so all of Parallelism goes to recalibration.
	Parallelism int
	// Interrupt, when non-nil, is polled before every lockstep round,
	// or before every source refill of a one-scheme pass; a non-nil
	// error aborts the pass (no results). The experiment runner feeds
	// its context's Err here so serve job timeouts and cancellations cut
	// long passes short instead of waiting out the full pass.
	Interrupt func() error
	// Snapshots, when non-nil, replays each scheme's measure phase from
	// a warm-state blob (Snapshots[i] pairs with schemes[i]) instead of
	// simulating the warmup: the sources are re-seated at the boundary
	// and each engine is restored before its first reference. Results
	// are bit-identical to the straight-through pass. Unusable blobs
	// fail with an ErrSnapshot-wrapped error so callers can fall back to
	// a cold pass.
	Snapshots [][]byte
	// SnapshotSink, when non-nil on a cold pass with a warmup window,
	// receives each scheme's warm-state blob as its engine crosses the
	// warmup/measure boundary. On a lockstep pass the callback runs on
	// worker goroutines and may fire concurrently for different
	// schemes; it must be safe for concurrent use. Capture requires
	// every source to state its cursor at the boundary: a one-scheme
	// pass reads it live (workload.StateSource), a lockstep pass, whose
	// front reads ahead, asks for it by offset (workload.OffsetStater:
	// trace replays do; live generators cannot). Otherwise the pass
	// runs normally and the sink never fires.
	SnapshotSink func(scheme Scheme, blob []byte)
	// SnapshotSeed labels captured blobs and validates restored ones:
	// it must be the seed the sources were built with (sim.WarmKey).
	SnapshotSeed uint64
}

// RunMulti simulates one trace pass under every requested scheme and
// returns the results in schemes order, bit-identical to one Run per
// scheme over equivalent sources. It is RunMultiOpt with default
// options.
func RunMulti(cfg Config, schemes []Scheme, sources []workload.Source) ([]*Result, error) {
	return RunMultiOpt(cfg, schemes, sources, MultiOptions{})
}

// PassError is the error of a pass in which some schemes failed on
// their own: an invalid scheme/inclusion combination, an unusable
// snapshot, a false negative. Slots[i] is schemes[i]'s error, nil for
// the schemes that completed.
type PassError struct {
	Schemes []Scheme
	Slots   []error
}

func (e *PassError) Error() string {
	var b strings.Builder
	for i, err := range e.Slots {
		if err != nil {
			if b.Len() > 0 {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "%s: %v", e.Schemes[i], err)
		}
	}
	return b.String()
}

// Unwrap exposes the failed slots to errors.Is and errors.As.
func (e *PassError) Unwrap() []error {
	var out []error
	for _, err := range e.Slots {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// SlotErr returns scheme i's own error from a RunMultiOpt error: its
// slot of a *PassError, or err itself when the whole pass failed.
func SlotErr(err error, i int) error {
	var pe *PassError
	if errors.As(err, &pe) {
		return pe.Slots[i]
	}
	return err
}

// RunMultiOpt is the simulation driver every run goes through. One
// scheme gets one engine that refills straight from the sources and
// runs inline on the calling goroutine. Two or more run in lockstep: a
// shared front half decodes/generates each core's reference stream
// once, and one back half per scheme (hierarchy state, predictor
// state, energy accounting) consumes the shared blocks. Per-scheme
// clocks mean the schemes share the trace, never hierarchy state, so
// lockstep cannot couple them: results are bit-identical to one pass
// per scheme.
//
// A scheme that fails on its own fails only its slot: the returned
// slice still holds the other results, its slot is nil, and the error
// is a *PassError. Any other error fails the whole pass and returns no
// results.
func RunMultiOpt(cfg Config, schemes []Scheme, sources []workload.Source, opt MultiOptions) ([]*Result, error) {
	start := time.Now() //redhip:allow wallclock -- Perf restore-time attribution only
	if len(schemes) == 0 {
		return nil, fmt.Errorf("sim: RunMulti needs at least one scheme")
	}
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(sources), cfg.Cores)
	}

	// Restored mode: decode and cross-check the per-scheme warm blobs,
	// re-seat the shared sources at the warmup/measure boundary, and
	// strip the warmup window from the pass — the engines then simulate
	// the measure window only.
	snaps, err := decodeSnapshots(&cfg, schemes, sources, &opt)
	if err != nil {
		return nil, err
	}
	var decodeNanos int64
	runCfg := cfg
	if snaps != nil {
		decodeNanos = time.Since(start).Nanoseconds() //redhip:allow wallclock -- Perf restore-time attribution only
		runCfg.WarmupRefsPerCore = 0
	}

	var front *traceFront
	if len(schemes) > 1 {
		front = newTraceFront(&runCfg, sources)
	}
	engines := make([]*engine, len(schemes))
	errs := make([]error, len(schemes))
	built := 0
	for i, sc := range schemes {
		t0 := time.Now() //redhip:allow wallclock -- Perf simulate-time attribution only
		e, err := newEngine(runCfg.WithScheme(sc), sources, front)
		if err != nil {
			// One invalid combination (e.g. CBF under Exclusive) fails
			// its own slot only.
			errs[i] = err
			continue
		}
		if snaps != nil {
			t1 := time.Now() //redhip:allow wallclock -- Perf restore-time attribution only
			if rerr := e.restoreSnapshot(snaps[i]); rerr != nil {
				errs[i] = fmt.Errorf("%w: %v", ErrSnapshot, rerr)
				continue
			}
			e.restoreNanos = time.Since(t1).Nanoseconds() //redhip:allow wallclock -- Perf restore-time attribution only
		}
		e.simNanos = time.Since(t0).Nanoseconds() - e.restoreNanos //redhip:allow wallclock -- Perf simulate-time attribution only
		engines[i] = e
		built++
	}
	armSnapshotCapture(&runCfg, schemes, engines, sources, front, &opt)
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if built > 0 && workers > built {
		// Surplus workers sweep recalibration set partitions instead of
		// idling; results stay bit-identical (RecalibrateParallel's
		// contract), so the grant only changes wall time.
		for _, e := range engines {
			if e != nil {
				e.recalWorkers = workers / built
			}
		}
		workers = built
	}

	if front == nil {
		if e := engines[0]; e != nil {
			e.interrupt = opt.Interrupt
			t0 := time.Now() //redhip:allow wallclock -- Perf simulate-time attribution only
			e.start()
			if !e.runChunk() {
				return nil, e.runErr
			}
			e.simNanos += time.Since(t0).Nanoseconds() //redhip:allow wallclock -- Perf simulate-time attribution only
		}
	} else if err := runLockstep(front, engines, workers, &opt); err != nil {
		return nil, err
	}

	// Deterministic reduction: results are assembled in schemes order,
	// each from its own engine's independently accumulated state, so
	// neither worker count nor chunk interleaving can reorder anything.
	// The shared costs (front generation, snapshot decode) are split
	// evenly with the remainder on the first slot.
	out := make([]*Result, len(schemes))
	failed := built < len(schemes)
	var frontGen int64
	if front != nil {
		frontGen = front.genNanos
	}
	n, first := max(int64(built), 1), true
	for i, e := range engines {
		if e == nil {
			continue
		}
		if e.runErr != nil {
			errs[i] = e.runErr
			failed = true
			continue
		}
		gen, restore := frontGen/n, decodeNanos/n
		if first {
			gen, restore = gen+frontGen%n, restore+decodeNanos%n
			first = false
		}
		p := &e.res.Perf
		p.GenerateNanos = e.genNanos + gen
		p.SimulateNanos = e.simNanos - e.genNanos
		p.RestoreNanos = e.restoreNanos + restore
		p.WallNanos = p.GenerateNanos + p.SimulateNanos + p.RestoreNanos
		if secs := float64(p.WallNanos) / 1e9; secs > 0 {
			p.RefsPerSec = float64(e.res.Refs) / secs
		}
		out[i] = e.res
	}
	if failed {
		return out, &PassError{Schemes: schemes, Slots: errs}
	}
	return out, nil
}

// runLockstep drives two or more back halves over the shared front in
// rounds: a single-threaded generate/retire phase alternates with a
// parallel simulate phase over the still-active engines. The barrier
// between phases is what makes the lock-free block sharing sound —
// storage is written only while no engine runs, and engines only read
// blocks the previous phase published.
func runLockstep(front *traceFront, engines []*engine, workers int, opt *MultiOptions) error {
	active := make([]*engine, 0, len(engines))
	feeds := make([]*multiFeed, 0, len(engines))
	for _, e := range engines {
		if e != nil {
			e.start()
			active = append(active, e)
			feeds = append(feeds, e.feed)
		}
	}
	work := make(chan *engine)
	var done sync.WaitGroup
	for len(active) > 0 {
		if opt.Interrupt != nil {
			if err := opt.Interrupt(); err != nil {
				return err
			}
		}
		for c := 0; c < front.cores; c++ {
			minCur, maxCur := frontCursorBounds(feeds, c)
			front.retire(c, minCur)
			front.extend(c, maxCur+frontLookahead)
		}
		spawn := workers
		if spawn > len(active) {
			spawn = len(active)
		}
		done.Add(spawn)
		for w := 0; w < spawn; w++ {
			go func() {
				defer done.Done()
				for e := range work {
					t0 := time.Now() //redhip:allow wallclock -- Perf simulate-time attribution only
					e.runChunk()
					//redhip:phase-exclusive each engine is handed to exactly one worker per round; done.Wait publishes the write
					e.simNanos += time.Since(t0).Nanoseconds() //redhip:allow wallclock -- Perf simulate-time attribution only
				}
			}()
		}
		for _, e := range active {
			work <- e
		}
		// Close-and-remake per round: the WaitGroup barrier is the
		// happens-before edge between this simulate phase and the next
		// generate phase.
		close(work)
		done.Wait()
		work = make(chan *engine)
		next := active[:0]
		nextFeeds := feeds[:0]
		for _, e := range active {
			if e.phase != phaseDone {
				next = append(next, e)
				nextFeeds = append(nextFeeds, e.feed)
			}
		}
		active, feeds = next, nextFeeds
	}
	return nil
}
