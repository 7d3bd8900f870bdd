package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"redhip/internal/sim"
)

// State is a job's lifecycle position. Transitions are monotone:
// queued -> running -> {done, failed}; queued/running -> cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether s is an end state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Terminal is the exported face of terminal — the cluster router
// mirrors job lifecycles and needs the same end-state test.
func (s State) Terminal() bool { return s.terminal() }

// Event is one entry of a job's progress stream, delivered over SSE as
//
//	id: <ID>
//	event: <Type>
//	data: <Data>
//
// The event log is append-only; late subscribers replay it from the
// start, so a progress event is never lost to subscription timing.
type Event struct {
	ID   int
	Type string // "queued", "running", "progress", "retry", "panic", "done", "failed", "cancelled"
	Data json.RawMessage
}

// progressData is the payload of a "progress" event.
type progressData struct {
	Workload  string  `json:"workload"`
	Scheme    string  `json:"scheme"`
	Completed int     `json:"completed"`
	Total     int     `json:"total"`
	Refs      uint64  `json:"refs,omitempty"`
	Cycles    uint64  `json:"cycles,omitempty"`
	Error     string  `json:"error,omitempty"`
	WallMS    float64 `json:"wall_ms,omitempty"`
}

// retryData is the payload of a "retry" event: attempt N failed and
// the job will re-execute after the stated backoff.
type retryData struct {
	Attempt int     `json:"attempt"` // the attempt that just failed (1-based)
	Max     int     `json:"max_attempts"`
	DelayMS float64 `json:"delay_ms"`
	Error   string  `json:"error"`
}

// panicData is the payload of a "panic" event: the recovered value and
// the goroutine stack, so a post-mortem needs no server-side logs.
type panicData struct {
	Value string `json:"value"`
	Stack string `json:"stack"`
}

// Job is one admitted submission and everything it accretes: the
// shared Lifecycle (state, event log, subscribers), progress counters,
// and (terminally) results or an error.
type Job struct {
	Lifecycle
	Spec Spec // immutable
	// estBytes is the trace-footprint reservation made at admission;
	// finalize releases it exactly once on the terminal transition.
	estBytes uint64

	attempts  int                //redhip:guardedby Mu // execution attempts started (retries included)
	results   []*sim.Result      //redhip:guardedby Mu
	completed int                //redhip:guardedby Mu // runs finished
	total     int                //redhip:guardedby Mu // runs planned
	started   time.Time          //redhip:guardedby Mu
	cancel    context.CancelFunc //redhip:guardedby Mu // non-nil while running
}

func newJob(id string, spec Spec, now time.Time) *Job {
	j := &Job{Spec: spec, total: spec.runs()}
	j.Init(id, spec.key(), StateQueued, now)
	return j
}

// start transitions queued -> running, installing the cancel func.
// It returns false when the job was cancelled while queued: a DELETE
// that raced the queued->running hand-off sets cancelRequested, and the
// worker that popped the job abandons the run here.
func (j *Job) start(cancel context.CancelFunc, now time.Time) bool {
	j.Mu.Lock()
	defer j.Mu.Unlock()
	if j.state != StateQueued || j.cancelRequested {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.PublishLocked("running", StateData{State: StateRunning})
	return true
}

// noteAttempt records the start of one execution attempt.
func (j *Job) noteAttempt() {
	j.Mu.Lock()
	j.attempts++
	j.Mu.Unlock()
}

// publishRetry emits a "retry" event after a failed attempt.
func (j *Job) publishRetry(attempt, max int, delay time.Duration, err error) {
	j.Publish("retry", retryData{
		Attempt: attempt,
		Max:     max,
		DelayMS: float64(delay) / float64(time.Millisecond),
		Error:   err.Error(),
	})
}

// publishPanic emits a "panic" event carrying the recovered value and
// its stack.
func (j *Job) publishPanic(v any, stack []byte) {
	j.Publish("panic", panicData{Value: fmt.Sprint(v), Stack: string(stack)})
}

// progress records one finished run and emits a progress event.
func (j *Job) progress(p progressData) {
	j.Mu.Lock()
	defer j.Mu.Unlock()
	j.completed++
	p.Completed = j.completed
	p.Total = j.total
	j.PublishLocked("progress", p)
}

// finish transitions to a terminal state and emits the terminal event,
// results included in the same hold; it reports whether this call won.
func (j *Job) finish(state State, errMsg string, results []*sim.Result, now time.Time) bool {
	j.Mu.Lock()
	defer j.Mu.Unlock()
	if !j.FinishLocked(state, errMsg, now) {
		return false
	}
	j.results = results
	j.cancel = nil
	return true
}

// requestCancel asks the job to stop. A queued job reports
// wasQueued=true and the caller removes it from the queue and finishes
// it; a running job has its context cancelled and reaches "cancelled"
// through the worker. Terminal jobs are untouched.
func (j *Job) requestCancel() (wasQueued, wasRunning bool) {
	j.Mu.Lock()
	defer j.Mu.Unlock()
	switch j.state {
	case StateQueued:
		j.RequestCancelLocked()
		return true, false
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return false, true
	}
	return false, false
}

// Status is the JSON shape of GET /v1/jobs/{id}.
type Status struct {
	ID          string        `json:"id"`
	Key         string        `json:"key"`
	State       State         `json:"state"`
	Error       string        `json:"error,omitempty"`
	Spec        Spec          `json:"spec"`
	Completed   int           `json:"completed"`
	Total       int           `json:"total"`
	Attempts    int           `json:"attempts,omitempty"`
	Submissions int           `json:"submissions"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Results     []*sim.Result `json:"results,omitempty"`
}

// snapshot renders the job's current status. withResults controls
// whether the (potentially large) result array is included.
func (j *Job) snapshot(withResults bool) Status {
	j.Mu.Lock()
	defer j.Mu.Unlock()
	ph := j.PhaseLocked()
	st := Status{
		ID:          j.ID,
		Key:         j.Key,
		State:       ph.State,
		Error:       ph.Error,
		Spec:        j.Spec,
		Completed:   j.completed,
		Total:       j.total,
		Attempts:    j.attempts,
		Submissions: ph.Submissions,
		SubmittedAt: ph.SubmittedAt,
		FinishedAt:  ph.FinishedAt,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if withResults && ph.State == StateDone {
		st.Results = j.results
	}
	return st
}

// runningSince reports when the job started executing, if it is
// currently running.
func (j *Job) runningSince() (time.Time, bool) {
	j.Mu.Lock()
	defer j.Mu.Unlock()
	if j.state != StateRunning {
		return time.Time{}, false
	}
	return j.started, true
}
