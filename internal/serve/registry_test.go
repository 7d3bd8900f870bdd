package serve

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"redhip/internal/sweep"
)

// resolveJob registers spec in a job registry the way admitSpec does,
// without the admission gate.
func resolveJob(st *Registry[*Job], spec Spec, now time.Time) (*Job, bool, error) {
	return st.Resolve(spec.key(), nil, func(id string) *Job { return newJob(id, spec, now) })
}

// finishJob applies a terminal transition through the registry, the
// way finalize does.
func finishJob(st *Registry[*Job], j *Job, state State, errMsg string) bool {
	return st.Finish(j, func() bool { return j.finish(state, errMsg, nil, time.Now()) })
}

// drive moves a freshly queued job to state.
func drive(t *testing.T, st *Registry[*Job], j *Job, state State) {
	t.Helper()
	switch state {
	case StateQueued:
	case StateRunning:
		if !j.start(nil, time.Now()) {
			t.Fatalf("%s did not start", j.ID)
		}
	default:
		if !finishJob(st, j, state, "") {
			t.Fatalf("%s did not finish %s", j.ID, state)
		}
	}
}

// TestRegistryEviction: residents beyond max are evicted terminal
// ones first, oldest first; live ones never. A registry that refuses
// overflow answers ErrRegistryFull when nothing is evictable, and one
// that does not lets live entries push past max.
func TestRegistryEviction(t *testing.T) {
	cases := []struct {
		name       string
		max        int
		refuseFull bool
		residents  []State // insertion order, before one more Resolve
		wantErr    bool
		wantKept   []int // resident indices still resolvable afterwards
	}{
		{"room left evicts nothing", 3, false, []State{StateDone, StateFailed}, false, []int{0, 1}},
		{"oldest terminal first", 3, false, []State{StateDone, StateCancelled, StateFailed}, false, []int{1, 2}},
		{"live entries skipped", 3, false, []State{StateRunning, StateQueued, StateDone}, false, []int{0, 1}},
		{"all live overflows", 2, false, []State{StateQueued, StateRunning}, false, []int{0, 1}},
		{"all live refuses", 2, true, []State{StateQueued, StateRunning}, true, []int{0, 1}},
		{"refusing registry evicts terminal", 2, true, []State{StateRunning, StateDone}, false, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewRegistry[*Job]("job-%06d", tc.max, tc.refuseFull)
			var jobs []*Job
			for i, state := range tc.residents {
				j, created, err := resolveJob(st, specWithSeed(uint64(i+1)), time.Now())
				if err != nil || !created {
					t.Fatalf("resident %d: created=%v err=%v", i, created, err)
				}
				drive(t, st, j, state)
				jobs = append(jobs, j)
			}
			extra, created, err := resolveJob(st, specWithSeed(99), time.Now())
			if tc.wantErr {
				if !errors.Is(err, ErrRegistryFull) || created || extra != nil {
					t.Fatalf("Resolve = (%v, %v, %v), want ErrRegistryFull", extra, created, err)
				}
			} else if err != nil || !created || st.Get(extra.ID) != extra {
				t.Fatalf("Resolve = (%v, %v, %v), want a resolvable new entry", extra, created, err)
			}
			kept := map[int]bool{}
			for _, i := range tc.wantKept {
				kept[i] = true
			}
			for i, j := range jobs {
				if got := st.Get(j.ID) != nil; got != kept[i] {
					t.Errorf("resident %d (%s): resolvable=%v, want %v", i, tc.residents[i], got, kept[i])
				}
			}
			want := len(tc.wantKept)
			if !tc.wantErr {
				want++
			}
			if n := st.Len(); n != want || len(st.List()) != want {
				t.Fatalf("Len = %d, List = %d, want %d", n, len(st.List()), want)
			}
		})
	}
}

// TestRegistryKeyBinding: a done entry keeps its key (the result
// cache: the next identical submission attaches to it), while failed
// and cancelled ones release it so the next one executes afresh.
func TestRegistryKeyBinding(t *testing.T) {
	for _, tc := range []struct {
		state State
		keeps bool
	}{
		{StateDone, true},
		{StateFailed, false},
		{StateCancelled, false},
	} {
		t.Run(string(tc.state), func(t *testing.T) {
			st := NewRegistry[*Job]("job-%06d", 8, false)
			spec := specWithSeed(1)
			j, _, _ := resolveJob(st, spec, time.Now())
			drive(t, st, j, tc.state)
			again, created, err := resolveJob(st, spec, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if tc.keeps {
				if created || again != j || j.snapshot(false).Submissions != 2 {
					t.Fatalf("resubmission did not attach to the done entry: created=%v same=%v", created, again == j)
				}
			} else if !created || again == j {
				t.Fatalf("resubmission attached to a %s entry", tc.state)
			}
			if st.Get(j.ID) != j {
				t.Fatalf("%s entry no longer resolvable by ID", tc.state)
			}
		})
	}
}

// TestSweepEvictionBeyondMax: terminal sweeps beyond MaxStoredSweeps
// age out oldest first over HTTP, and the stored-sweeps gauge agrees.
func TestSweepEvictionBeyondMax(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16, MaxStoredSweeps: 2})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		g := sweep.Grid{
			Workloads:   []string{"mcf"},
			Schemes:     []string{"base"},
			Geometries:  []string{"smoke"},
			Seeds:       []uint64{seed},
			RefsPerCore: []uint64{2000},
		}
		sub := ts.submitSweep(g, http.StatusAccepted)
		ts.waitSweep(sub.ID, StateDone)
		ids = append(ids, sub.ID)
	}
	resp, err := http.Get(ts.web.URL + "/v1/sweeps/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted sweep still resolvable: %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if st := ts.sweepStatus(id); st.State != StateDone {
			t.Fatalf("sweep %s = %s, want a resident done sweep", id, st.State)
		}
	}
	if v := ts.metricValue("redhip_serve_sweeps_stored"); v != 2 {
		t.Fatalf("redhip_serve_sweeps_stored = %g, want 2", v)
	}
}
