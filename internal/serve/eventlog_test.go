package serve

import (
	"encoding/json"
	"testing"
	"time"
)

// drain reads ch until it closes, failing if that takes too long.
func drain(t *testing.T, ch <-chan Event) []Event {
	t.Helper()
	var out []Event
	timeout := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("channel still open after %d events", len(out))
		}
	}
}

// TestEventLogLifecycle is the event log's contract, exercised through
// the Lifecycle every job, sweep and routed job embeds: replay, then
// live, with gap-free IDs; a subscriber more than 256 events behind is
// dropped by closing its channel; the terminal event closes every
// subscriber; a subscription after it gets the whole replay and a
// closed channel; and unsubscribing after any of those closes is safe.
func TestEventLogLifecycle(t *testing.T) {
	var l Lifecycle
	l.Init("x-1", "key", StateQueued, time.Now())
	l.Publish("progress", progressData{Completed: 1})

	replay, live, unsub := l.subscribe()
	if len(replay) != 2 || replay[0].ID != 1 || replay[1].ID != 2 {
		t.Fatalf("replay = %+v, want events 1 and 2", replay)
	}
	if replay[0].Type != "queued" || string(replay[0].Data) != `{"state":"queued"}` {
		t.Fatalf("first event = %s %s, want the initial state", replay[0].Type, replay[0].Data)
	}
	_, slowLive, slowUnsub := l.subscribe() // never read until the end

	// Live delivery continues the replay's numbering; a raw (mirrored)
	// payload lands verbatim, an empty one as {}.
	l.Mu.Lock()
	l.PublishRawLocked("mirrored", json.RawMessage(`{"replica":"a"}`))
	l.PublishRawLocked("empty", nil)
	l.Mu.Unlock()
	for i, want := range []string{`{"replica":"a"}`, `{}`} {
		ev := <-live
		if ev.ID != 3+i || string(ev.Data) != want {
			t.Fatalf("live event %d = (%d, %s), want (%d, %s)", i, ev.ID, ev.Data, 3+i, want)
		}
	}

	// Overflow the slow subscriber's 256-event buffer: it is dropped,
	// while the fast one (whose buffer was empty) holds every event.
	for i := 0; i < 256; i++ {
		l.Publish("progress", progressData{Completed: i})
	}
	slow := drain(t, slowLive)
	if len(slow) != 256 || slow[0].ID != 3 || slow[255].ID != 258 {
		t.Fatalf("slow subscriber got %d events, want IDs 3..258 before it was dropped", len(slow))
	}
	slowUnsub() // already dropped: must be a no-op
	for want := 5; want <= 260; want++ {
		if ev := <-live; ev.ID != want {
			t.Fatalf("fast subscriber got #%d, want #%d", ev.ID, want)
		}
	}

	// The terminal event closes the remaining subscriber after delivery.
	l.Mu.Lock()
	if !l.FinishLocked(StateFailed, "boom", time.Now()) {
		t.Fatal("first FinishLocked lost")
	}
	if l.FinishLocked(StateCancelled, "late", time.Now()) {
		t.Fatal("second FinishLocked won")
	}
	l.Mu.Unlock()
	if rest := drain(t, live); len(rest) != 1 || rest[0].Type != "failed" || rest[0].ID != 261 {
		t.Fatalf("after the terminal event the subscriber got %+v, want only failed #261", rest)
	}
	unsub() // closed by the terminal event: must be a no-op

	// After the terminal event: the whole log, and a closed channel.
	replay, live, unsub = l.subscribe()
	if n := len(replay); n != 261 || replay[n-1].Type != "failed" || string(replay[n-1].Data) != `{"state":"failed","error":"boom"}` {
		t.Fatalf("post-terminal replay: %d events, last %+v", n, replay[n-1])
	}
	for i, ev := range replay {
		if ev.ID != i+1 {
			t.Fatalf("replay[%d].ID = %d, want gap-free IDs", i, ev.ID)
		}
	}
	if _, ok := <-live; ok {
		t.Fatal("post-terminal subscription channel is open")
	}
	unsub()
}
