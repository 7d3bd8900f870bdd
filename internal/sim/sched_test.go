package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// schedEngine is an engine with only the scheduler's state: clocks,
// remaining counters and the tree.
func schedEngine(cores int) *engine {
	e := &engine{
		cfg:       &Config{Cores: cores},
		clock:     make([]float64, cores),
		remaining: make([]uint64, cores),
	}
	e.heapInit()
	return e
}

// scanOrder returns the cores with work left by ascending (clock, id):
// the dispatch contract, computed by a linear scan.
func scanOrder(e *engine) (first, second int) {
	first, second = -1, -1
	for c, r := range e.remaining {
		if r == 0 {
			continue
		}
		switch {
		case first < 0 || e.clock[c] < e.clock[first]:
			first, second = c, first
		case second < 0 || e.clock[c] < e.clock[second]:
			second = c
		}
	}
	return first, second
}

// checkWinner compares the tree's winner and runner-up with the scan.
func checkWinner(t *testing.T, e *engine, step int) {
	t.Helper()
	first, second := scanOrder(e)
	win := e.tree[0]
	if first < 0 {
		if win.clk != retiredKey {
			t.Fatalf("step %d: every core retired but the root is core %d", step, win.id)
		}
		return
	}
	if int(win.id) != first || win.clk != math.Float64bits(e.clock[first]) {
		t.Fatalf("step %d: tree picks core %d at %v, scan picks core %d at %v (clocks %v)",
			step, win.id, math.Float64frombits(win.clk), first, e.clock[first], e.clock)
	}
	rs := e.rootSecond()
	if second < 0 {
		if rs.clk != retiredKey {
			t.Fatalf("step %d: no other core left but rootSecond is core %d", step, rs.id)
		}
		return
	}
	if int(rs.id) != second || rs.clk != math.Float64bits(e.clock[second]) {
		t.Fatalf("step %d: rootSecond is core %d, scan runner-up is core %d (clocks %v)", step, rs.id, second, e.clock)
	}
}

// TestSchedulerMatchesLinearScan drives the tree through the same
// sequence of operations runWindow does, and checks every dispatch
// against a lowest-(clock, id) linear scan. Increments come from a
// small set of values so exact ties are common; cores retire when
// their window runs out, and early (an exhausted source); uniform bumps
// (recalibration) hit every clock at once.
func TestSchedulerMatchesLinearScan(t *testing.T) {
	incs := []float64{0, 0.5, 1, 1, 2, 3, 1e-9}
	for _, cores := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cores=%d/seed=%d", cores, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				e := schedEngine(cores)
				for c := range e.remaining {
					e.remaining[c] = uint64(50 + rng.Intn(150))
					e.clock[c] = float64(rng.Intn(4))
				}
				e.heapRefresh()
				for step := 0; e.tree[0].clk < retiredKey; step++ {
					checkWinner(t, e, step)
					c := int(e.tree[0].id)
					if rng.Intn(200) == 0 {
						e.remaining[c] = 0
						e.heapPop()
						continue
					}
					e.remaining[c]--
					e.clock[c] += incs[rng.Intn(len(incs))]
					if rng.Intn(40) == 0 {
						bump := float64(1 + rng.Intn(3))
						for d := range e.clock {
							e.clock[d] += bump
						}
						e.heapDirty = true
					}
					switch {
					case e.heapDirty:
						e.heapRefresh()
					case e.remaining[c] == 0:
						e.heapPop()
					default:
						e.leadChange(coreEnt{clk: math.Float64bits(e.clock[c]), id: uint64(c)})
					}
				}
				checkWinner(t, e, -1)
				for c, r := range e.remaining {
					if r != 0 {
						t.Fatalf("window ended with core %d owing %d references", c, r)
					}
				}
			})
		}
	}
}

// TestSchedulerRecalibrationTie pins the dispatch contract across a
// recalibration whose uniform stall makes two clocks equal in float64:
// 1+ulp and 1 both become 2 after +1, so the tie goes to the lower id,
// core 1, not to core 3, which led before the stall.
func TestSchedulerRecalibrationTie(t *testing.T) {
	e := schedEngine(4)
	copy(e.clock, []float64{5, math.Nextafter(1, 2), 7, 1})
	e.beginWindow(1)
	if got := e.tree[0].id; got != 3 {
		t.Fatalf("before the stall the winner is core %d, want 3", got)
	}
	for c := range e.clock {
		e.clock[c] += 1.0
	}
	if e.clock[1] != e.clock[3] {
		t.Fatalf("clocks %v: the stall no longer rounds cores 1 and 3 together", e.clock)
	}
	e.heapRefresh()
	if got := e.tree[0].id; got != 1 {
		t.Fatalf("after the stall the winner is core %d, want core 1 (clocks %v)", got, e.clock)
	}
}
