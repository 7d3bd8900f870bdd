package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"redhip/internal/tracestore"
	"redhip/internal/workload"
)

// multiTestGeometries returns the two geometries the RunMulti property
// test sweeps: plain smoke, and a warmup-bearing two-core variant that
// exercises the phase machine (warmup window → measurement window
// reset) through the shared front.
func multiTestGeometries() map[string]Config {
	warm := Smoke()
	warm.Cores = 2
	warm.RefsPerCore = 20_000
	warm.WarmupRefsPerCore = 5_000
	return map[string]Config{
		"smoke":  Smoke(),
		"warmup": warm,
	}
}

// validSchemes filters Schemes() to those cfg accepts (CBF is rejected
// under Exclusive).
func validSchemes(cfg Config) []Scheme {
	var out []Scheme
	for _, sc := range Schemes() {
		c := cfg.WithScheme(sc)
		if c.Validate() == nil {
			out = append(out, sc)
		}
	}
	return out
}

// stripPerf zeroes the wall-clock performance block, the only Result
// field RunMulti is allowed to report differently from Run.
func stripPerf(r *Result) *Result {
	cp := *r
	cp.Perf = PerfStats{}
	return &cp
}

// TestRunMultiMatchesRun is the field-for-field equivalence property:
// one RunMulti pass over N schemes must produce Results identical
// (Perf excluded) to N independent Run calls over equivalent sources,
// across seeds, geometries and every valid scheme set.
func TestRunMultiMatchesRun(t *testing.T) {
	for geoName, cfg := range multiTestGeometries() {
		for _, incl := range []InclusionPolicy{Inclusive, Hybrid, Exclusive} {
			for _, seed := range []uint64{1, 7} {
				cfg := cfg.WithInclusion(incl)
				name := fmt.Sprintf("%s/%s/seed=%d", geoName, incl, seed)
				t.Run(name, func(t *testing.T) {
					schemes := validSchemes(cfg)
					want := make([]*Result, len(schemes))
					for i, sc := range schemes {
						srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, seed)
						if err != nil {
							t.Fatal(err)
						}
						res, err := Run(cfg.WithScheme(sc), srcs)
						if err != nil {
							t.Fatalf("Run(%s): %v", sc, err)
						}
						want[i] = res
					}
					srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunMulti(cfg, schemes, srcs)
					if err != nil {
						t.Fatalf("RunMulti: %v", err)
					}
					for i, sc := range schemes {
						if got[i] == nil {
							t.Fatalf("%s: nil result without error", sc)
						}
						g, w := stripPerf(got[i]), stripPerf(want[i])
						if !reflect.DeepEqual(g, w) {
							t.Errorf("%s: RunMulti result differs from Run:\n got %+v\nwant %+v", sc, g, w)
						}
					}
				})
			}
		}
	}
}

// TestRunMultiInvalidSlot pins the per-slot failure contract: one
// invalid scheme/inclusion combination (CBF under Exclusive) fails its
// own slot only, while the valid schemes in the same pass complete.
func TestRunMultiInvalidSlot(t *testing.T) {
	cfg := Smoke().WithInclusion(Exclusive)
	srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []Scheme{Base, CBF, ReDHiP}
	results, err := RunMulti(cfg, schemes, srcs)
	if err == nil {
		t.Fatal("RunMulti accepted CBF under Exclusive")
	}
	if results[1] != nil {
		t.Errorf("invalid CBF slot returned a result")
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil {
			t.Errorf("%s: valid slot failed alongside the invalid one", schemes[i])
		}
		if SlotErr(err, i) != nil {
			t.Errorf("%s: valid slot carries error %v", schemes[i], SlotErr(err, i))
		}
	}
	cbf := cfg.WithScheme(CBF)
	want := cbf.Validate()
	if got := SlotErr(err, 1); got == nil || got.Error() != want.Error() {
		t.Errorf("CBF slot error = %v, want its own validation error %v", got, want)
	}
}

// TestPerfStatsAddUp pins PerfStats' one definition on every path: the
// generate, simulate and restore slices add up to the wall time, and a
// restored pass reports its restore time.
func TestPerfStatsAddUp(t *testing.T) {
	cfg := Smoke()
	cfg.WarmupRefsPerCore = 5_000
	cfg.RefsPerCore = 10_000
	schemes := Schemes()
	store := tracestore.New(0)
	sources := func() []workload.Source {
		mat, err := store.Get(tracestore.Key{
			Workload: "mcf", Cores: cfg.Cores, Scale: cfg.WorkloadScale, Seed: 1,
			RefsPerCore: cfg.WarmupRefsPerCore + cfg.RefsPerCore,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mat.Sources()
	}
	check := func(name string, results []*Result, restored bool) {
		t.Helper()
		for i, res := range results {
			p := res.Perf
			if p.GenerateNanos+p.SimulateNanos+p.RestoreNanos != p.WallNanos {
				t.Errorf("%s slot %d: generate %d + simulate %d + restore %d != wall %d",
					name, i, p.GenerateNanos, p.SimulateNanos, p.RestoreNanos, p.WallNanos)
			}
			if p.WallNanos <= 0 || p.SimulateNanos <= 0 {
				t.Errorf("%s slot %d: wall %d, simulate %d, want both > 0", name, i, p.WallNanos, p.SimulateNanos)
			}
			if restored != (p.RestoreNanos > 0) {
				t.Errorf("%s slot %d: RestoreNanos = %d on a restored=%v pass", name, i, p.RestoreNanos, restored)
			}
		}
	}
	// pass runs a cold pass that captures every scheme's blob, then a
	// pass restored from them, and checks both.
	pass := func(name string, schemes []Scheme, par int) {
		blobs := make([][]byte, len(schemes))
		var mu sync.Mutex
		cold, err := RunMultiOpt(cfg, schemes, sources(), MultiOptions{
			Parallelism:  par,
			SnapshotSeed: 1,
			SnapshotSink: func(sc Scheme, blob []byte) {
				mu.Lock()
				defer mu.Unlock()
				blobs[slices.Index(schemes, sc)] = blob
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/cold", cold, false)
		restored, err := RunMultiOpt(cfg, schemes, sources(), MultiOptions{
			Parallelism: par, Snapshots: blobs, SnapshotSeed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/restored", restored, true)
	}

	res, err := Run(cfg.WithScheme(ReDHiP), sources())
	if err != nil {
		t.Fatal(err)
	}
	check("Run", []*Result{res}, false)
	pass("one-scheme", []Scheme{ReDHiP}, 1)
	for _, par := range []int{1, 2, runtime.NumCPU()} {
		pass(fmt.Sprintf("five-scheme/par=%d", par), schemes, par)
	}
}

// TestRunMultiInterrupt pins the abort path: a failing Interrupt poll
// stops the pass before completion with no results.
func TestRunMultiInterrupt(t *testing.T) {
	cfg := Smoke()
	// A one-scheme pass polls before every source refill, a lockstep
	// pass before every round; both must stop mid-pass, not only before
	// it starts.
	for _, schemes := range [][]Scheme{{Base, ReDHiP}, {ReDHiP}} {
		srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantErr := fmt.Errorf("deadline exceeded")
		polls := 0
		results, err := RunMultiOpt(cfg, schemes, srcs, MultiOptions{
			Interrupt: func() error {
				polls++
				if polls > 1 {
					return wantErr
				}
				return nil
			},
		})
		if err != wantErr || results != nil {
			t.Fatalf("%v: interrupted pass returned results=%v err=%v", schemes, results, err)
		}
		if polls != 2 {
			t.Fatalf("%v: pass polled %d times after the interrupt fired, want it to stop at poll 2", schemes, polls)
		}
	}
}

// TestRunMultiRaceAtNumCPU drives RunMulti at full machine parallelism
// over live sources; under -race (the CI pass) this checks the
// barrier discipline of the lock-free block sharing, and in any mode
// it re-checks bit-identity against the sequential engine at whatever
// worker count the host provides.
func TestRunMultiRaceAtNumCPU(t *testing.T) {
	cfg := Smoke()
	schemes := validSchemes(cfg)
	srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMultiOpt(cfg, schemes, srcs, MultiOptions{Parallelism: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range schemes {
		srcs, err := workload.Sources("mcf", cfg.Cores, cfg.WorkloadScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(cfg.WithScheme(sc), srcs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripPerf(got[i]), stripPerf(want)) {
			t.Errorf("%s: RunMulti at NumCPU diverged from sequential Run", sc)
		}
	}
}
