package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// EventLog is the append-only progress log behind every event stream —
// serve's jobs and sweeps and the router's routed jobs: a monotone
// event sequence plus live fan-out to subscribers, with
// replay-then-live semantics (late subscribers replay the log from the
// start, so no event is ever lost to subscription timing). Its IDs are
// its own: a routed job's log keeps counting across a re-home even
// though the new replica's log restarts at 1.
//
// The log deliberately has no mutex of its own: every method carries
// the Locked suffix and requires the owner's mutex held, so the owner
// can make a state transition and its event land atomically — a
// subscriber can never observe a terminal state whose event is missing
// from the log. Lifecycle.Mu is that mutex for every owner.
type EventLog struct {
	events []Event
	subs   map[chan Event]bool
}

// AppendLocked marshals payload and appends it.
func (l *EventLog) AppendLocked(typ string, payload any, terminal bool) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(`{}`)
	}
	l.AppendRawLocked(typ, data, terminal)
}

// AppendRawLocked appends an event whose payload is already JSON (a
// mirrored replica event) and fans it out to live subscribers. A
// subscriber too slow to keep up is dropped (its channel closed)
// rather than blocking the publisher; it can reconnect and replay.
// When terminal is true every remaining subscriber is closed after
// delivery — the log is complete.
func (l *EventLog) AppendRawLocked(typ string, data json.RawMessage, terminal bool) {
	if len(data) == 0 {
		data = json.RawMessage(`{}`)
	}
	ev := Event{ID: len(l.events) + 1, Type: typ, Data: data}
	l.events = append(l.events, ev)
	for ch := range l.subs {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(l.subs, ch)
		}
	}
	if terminal {
		for ch := range l.subs {
			close(ch)
			delete(l.subs, ch)
		}
	}
}

// SubscribeLocked returns a copy of the log so far plus a live channel.
// When the owner is already terminal the channel comes back closed —
// replay is the whole story. The caller must eventually pass the
// channel to UnsubscribeLocked (under the owner's mutex) unless it was
// closed by a terminal event.
func (l *EventLog) SubscribeLocked(terminal bool) (replay []Event, ch chan Event) {
	replay = make([]Event, len(l.events))
	copy(replay, l.events)
	ch = make(chan Event, 256)
	if terminal {
		close(ch)
		return replay, ch
	}
	if l.subs == nil {
		l.subs = make(map[chan Event]bool)
	}
	l.subs[ch] = true
	return replay, ch
}

// UnsubscribeLocked detaches a live subscriber early. Safe to call
// after a terminal close (the subscription is already gone then).
func (l *EventLog) UnsubscribeLocked(ch chan Event) {
	if l.subs[ch] {
		delete(l.subs, ch)
		close(ch)
	}
}

// StateData is the payload of a lifecycle event: the state entered
// and, for failed and cancelled, why.
type StateData struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// Lifecycle is the core every tracked unit of work shares — serve's
// Job and sweepRun and the router's routedJob embed it: identity,
// lifecycle state with its error and timestamps, the submission count,
// the cancel request, and the event log. Mu guards these and every
// field the embedding type annotates //redhip:guardedby Mu, so an
// owner's own transitions land with their events in one hold.
type Lifecycle struct {
	// Immutable after Init.
	ID  string
	Key string // dedup key; "" for entries registered without one

	Mu              sync.Mutex
	state           State     //redhip:guardedby Mu
	err             string    //redhip:guardedby Mu
	submissions     int       //redhip:guardedby Mu // registrations resolved here (1 = no dedup)
	cancelRequested bool      //redhip:guardedby Mu
	submitted       time.Time //redhip:guardedby Mu
	finished        time.Time //redhip:guardedby Mu
	log             EventLog  //redhip:guardedby Mu
}

// Init sets the identity and the initial state, logging the state as
// the first event. Call it before the owner is shared.
func (l *Lifecycle) Init(id, key string, state State, now time.Time) {
	l.ID, l.Key = id, key
	l.Mu.Lock()
	defer l.Mu.Unlock()
	l.state, l.submissions, l.submitted = state, 1, now
	l.log.AppendLocked(string(state), StateData{State: state}, false)
}

func (l *Lifecycle) lifecycle() *Lifecycle { return l }

// Publish appends an event and fans it out; callers must NOT hold Mu.
func (l *Lifecycle) Publish(typ string, payload any) {
	l.Mu.Lock()
	l.PublishLocked(typ, payload)
	l.Mu.Unlock()
}

// PublishLocked is Publish with Mu already held.
func (l *Lifecycle) PublishLocked(typ string, payload any) {
	l.log.AppendLocked(typ, payload, l.state.terminal())
}

// PublishRawLocked appends an already-encoded payload with Mu held.
func (l *Lifecycle) PublishRawLocked(typ string, data json.RawMessage) {
	l.log.AppendRawLocked(typ, data, l.state.terminal())
}

// FinishLocked applies the terminal transition — state, error, finish
// time and the terminal event, which closes every subscriber — inside
// the caller's Mu hold, so the owner can set its own terminal fields in
// the same hold. The first terminal state wins; later calls (a cancel
// racing completion, say) change nothing and report false.
func (l *Lifecycle) FinishLocked(state State, errMsg string, now time.Time) bool {
	if l.state.terminal() {
		return false
	}
	l.state, l.err, l.finished = state, errMsg, now
	l.log.AppendLocked(string(state), StateData{State: state, Error: errMsg}, true)
	return true
}

// TerminalLocked reports whether the lifecycle has ended.
func (l *Lifecycle) TerminalLocked() bool { return l.state.terminal() }

// RequestCancelLocked records a cancel request for the owner's worker
// or orchestrator to honour.
func (l *Lifecycle) RequestCancelLocked() { l.cancelRequested = true }

// CancelRequestedLocked reports whether a cancel was requested.
func (l *Lifecycle) CancelRequestedLocked() bool { return l.cancelRequested }

// Phase is a copy of a Lifecycle's shared fields, for status bodies.
type Phase struct {
	State       State
	Error       string
	Submissions int
	SubmittedAt time.Time
	FinishedAt  *time.Time // nil until terminal
}

// PhaseLocked copies the shared fields with Mu held.
func (l *Lifecycle) PhaseLocked() Phase {
	p := Phase{State: l.state, Error: l.err, Submissions: l.submissions, SubmittedAt: l.submitted}
	if !l.finished.IsZero() {
		t := l.finished
		p.FinishedAt = &t
	}
	return p
}

// stateNow returns the current state.
func (l *Lifecycle) stateNow() State {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	return l.state
}

// attach records one more deduplicated submission.
func (l *Lifecycle) attach() {
	l.Mu.Lock()
	l.submissions++
	l.Mu.Unlock()
}

// subscribe returns the replayed event log and a live channel. The
// channel is closed after the terminal event; unsub must be called when
// the consumer stops reading early.
func (l *Lifecycle) subscribe() (replay []Event, live <-chan Event, unsub func()) {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	replay, ch := l.log.SubscribeLocked(l.state.terminal())
	return replay, ch, func() {
		l.Mu.Lock()
		l.log.UnsubscribeLocked(ch)
		l.Mu.Unlock()
	}
}

// StreamEvents serves l's event log as text/event-stream: the replay,
// then live events until the terminal event closes the stream, the
// subscriber is dropped as too slow, or the client goes away. Job,
// sweep and routed-job event endpoints all stream through it.
func StreamEvents(w http.ResponseWriter, r *http.Request, l *Lifecycle) {
	fl, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, live, unsub := l.subscribe()
	defer unsub()
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	fl.Flush()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return // terminal event delivered (or subscriber dropped)
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, ev Event) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data)
}
