package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// specWithSeed returns a one-run smoke spec distinguished by seed, so
// tests can mint arbitrarily many non-colliding jobs.
func specWithSeed(seed uint64) Spec {
	s := smokeSpec()
	s.Schemes = []string{"base"}
	s.Seed = seed
	return s
}

// deleteJob issues DELETE /v1/jobs/{id}.
func (ts *testServer) deleteJob(id string) Status {
	ts.t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.web.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ts.t.Fatalf("DELETE: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ts.t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		ts.t.Fatalf("decode cancel response: %v", err)
	}
	return st
}

// TestQueueFullBackpressure: with one busy worker and a single queue
// slot, the third submission gets 429 + Retry-After; cancelling the
// queued job frees its slot so the next submission is admitted.
func TestQueueFullBackpressure(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	ts.s.testHookJobStart = func(*Job) {
		entered <- struct{}{}
		<-release
	}
	defer close(entered)

	running := ts.submit(specWithSeed(1), http.StatusAccepted)
	<-entered // worker occupied
	queued := ts.submit(specWithSeed(2), http.StatusAccepted)

	// Queue full: reject with 429 and a Retry-After hint.
	resp := ts.submitRaw(specWithSeed(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	resp.Body.Close()
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	if v := ts.metricValue("redhip_serve_jobs_rejected_total"); v != 1 {
		t.Fatalf("jobs_rejected_total = %g, want 1", v)
	}

	// Cancelling the queued job frees its slot immediately.
	st := ts.deleteJob(queued.ID)
	if st.State != StateCancelled {
		t.Fatalf("cancelled job state = %q", st.State)
	}
	if d := ts.s.queue.depth(); d != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", d)
	}
	admitted := ts.submit(specWithSeed(4), http.StatusAccepted)

	close(release)
	ts.waitState(running.ID, StateDone)
	ts.waitState(admitted.ID, StateDone)
	if v := ts.metricValue("redhip_serve_jobs_cancelled_total"); v != 1 {
		t.Fatalf("jobs_cancelled_total = %g, want 1", v)
	}
}

// TestCancelRunning: DELETE on a running job cancels its context; the
// worker observes it between runs and the job ends "cancelled", not
// "done".
func TestCancelRunning(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	ts.s.testHookJobStart = func(*Job) {
		started <- struct{}{}
		<-release
	}

	sub := ts.submit(specWithSeed(1), http.StatusAccepted)
	<-started
	ts.deleteJob(sub.ID)
	close(release)

	st := ts.waitState(sub.ID, StateCancelled)
	if st.Results != nil {
		t.Fatalf("cancelled job has results")
	}
	// A cancelled job's key is released: resubmission runs fresh.
	resub := ts.submit(specWithSeed(1), http.StatusAccepted)
	if resub.Deduped {
		t.Fatalf("resubmission after cancel was deduped")
	}
	ts.waitState(resub.ID, StateDone)
}

// TestCancelRunningMidPass: DELETE on a one-scheme job whose
// simulation is already under way stops the pass mid-run, so the job
// ends "cancelled" without results instead of running to "done".
func TestCancelRunningMidPass(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	spec := specWithSeed(1)
	spec.Schemes = []string{"redhip"}
	spec.RefsPerCore = 300_000 // long enough that the cancel lands mid-pass
	sub := ts.submit(spec, http.StatusAccepted)

	// The trace is materialised just before the pass starts; cancel as
	// soon as it exists.
	deadline := time.Now().Add(30 * time.Second)
	for ts.s.traces.Stats().Materializations == 0 {
		if time.Now().After(deadline) {
			t.Fatal("trace never materialised")
		}
		time.Sleep(time.Millisecond)
	}
	ts.deleteJob(sub.ID)
	st := ts.waitState(sub.ID, StateCancelled)
	if st.Results != nil {
		t.Fatalf("cancelled job has results")
	}
}

// TestJobTimeout: a spec-level timeout expires while the worker is
// held, and the job fails with a timeout error instead of hanging.
func TestJobTimeout(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	ts.s.testHookJobStart = func(*Job) {
		time.Sleep(80 * time.Millisecond) // outlive the 20ms budget below
	}
	spec := specWithSeed(1)
	spec.TimeoutSeconds = 0.02
	sub := ts.submit(spec, http.StatusAccepted)
	st := ts.waitState(sub.ID, StateFailed)
	if st.Error == "" {
		t.Fatalf("timeout job has empty error")
	}
}

// TestGracefulShutdown: in-flight jobs complete, queued jobs are
// cancelled, and new submissions are rejected while draining.
func TestGracefulShutdown(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	ts.s.testHookJobStart = func(*Job) {
		entered <- struct{}{}
		<-release
	}

	inflight := ts.submit(specWithSeed(1), http.StatusAccepted)
	<-entered
	queued := ts.submit(specWithSeed(2), http.StatusAccepted)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- ts.s.Shutdown(ctx)
	}()

	// Shutdown flips the stopping flag synchronously; wait for it to be
	// visible, then verify new work is rejected.
	waitFor(t, func() bool { return ts.s.stopping.Load() })
	resp := ts.submitRaw(specWithSeed(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// The queued job is cancelled by the drain without ever running.
	st := ts.waitState(queued.ID, StateCancelled)
	if st.StartedAt != nil {
		t.Fatalf("queued job ran during shutdown")
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The in-flight job completed with full results.
	fin := ts.status(inflight.ID)
	if fin.State != StateDone || len(fin.Results) != 1 {
		t.Fatalf("in-flight job after drain: state=%q results=%d", fin.State, len(fin.Results))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached in time")
}

// TestQueueUnit exercises the deque directly: FIFO order, slot
// accounting on remove, and close-drains semantics.
func TestQueueUnit(t *testing.T) {
	q := newJobQueue(2)
	a := newJob("a", smokeSpec(), time.Now())
	b := newJob("b", smokeSpec(), time.Now())
	c := newJob("c", smokeSpec(), time.Now())
	if err := q.push(a); err != nil {
		t.Fatal(err)
	}
	if err := q.push(b); err != nil {
		t.Fatal(err)
	}
	if err := q.push(c); err != ErrQueueFull {
		t.Fatalf("push over capacity = %v, want ErrQueueFull", err)
	}
	if !q.remove(a) {
		t.Fatalf("remove(a) failed")
	}
	if q.remove(a) {
		t.Fatalf("double remove(a) succeeded")
	}
	if err := q.push(c); err != nil {
		t.Fatalf("push after remove: %v", err)
	}
	got, ok := q.pop()
	if !ok || got != b {
		t.Fatalf("pop = %v, want b", got)
	}
	drained := q.close()
	if len(drained) != 1 || drained[0] != c {
		t.Fatalf("close drained %d jobs, want [c]", len(drained))
	}
	if _, ok := q.pop(); ok {
		t.Fatalf("pop after close returned a job")
	}
	if err := q.push(a); err != ErrShuttingDown {
		t.Fatalf("push after close = %v, want ErrShuttingDown", err)
	}
}
