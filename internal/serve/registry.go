package serve

import (
	"errors"
	"fmt"
	"sync"
)

// ErrRegistryFull is Resolve's refusal when a registry that refuses
// overflow has room for nothing: every resident entry is live.
var ErrRegistryFull = errors.New("registry full of live entries")

// tracked is what a Registry holds: a pointer to a type embedding
// Lifecycle.
type tracked interface {
	comparable
	lifecycle() *Lifecycle
}

// Registry is the one bounded index behind serve's jobs and sweeps and
// the router's routed jobs: lookup by ID, single-flight by dedup key,
// and insertion-ordered residency. Terminal entries beyond max are
// evicted oldest first; live entries are never evicted, so an ID
// handed to a client stays resolvable until its entry ends and ages
// out. Lock order is Registry.mu -> Lifecycle.Mu, and nothing takes
// them the other way round.
type Registry[T tracked] struct {
	idFormat string // fmt verb for the 1-based sequence, e.g. "job-%06d"
	max      int
	// refuseFull makes Resolve refuse new entries while every resident
	// one is live (the router's 429). Otherwise live entries may push
	// residency past max until they end and age out.
	refuseFull bool

	mu     sync.Mutex
	nextID uint64       //redhip:guardedby mu
	byID   map[string]T //redhip:guardedby mu
	byKey  map[string]T //redhip:guardedby mu // live, or done (the result cache)
	order  []T          //redhip:guardedby mu // insertion order, the eviction scan order
}

// NewRegistry returns an empty registry; see Registry for max and
// refuseFull.
func NewRegistry[T tracked](idFormat string, max int, refuseFull bool) *Registry[T] {
	return &Registry[T]{
		idFormat:   idFormat,
		max:        max,
		refuseFull: refuseFull,
		byID:       make(map[string]T),
		byKey:      make(map[string]T),
	}
}

// Resolve is the single-flight heart of dedup: under one lock it either
// attaches the submission to the entry currently owning key (live, or
// done and cached) or registers a fresh one built by create from the
// next ID. created=false means the caller must not start anything. An
// empty key is never bound, so it never dedups.
//
// admit, when non-nil, gates creation only: it runs under the lock
// after the dedup check, so serve's breaker and shed verdicts apply to
// genuinely new work (a dedup hit costs nothing and is never shed) and
// a shed reservation can never race another admission of the same
// spec. Eviction runs after admit, so a refused submission evicts
// nothing.
func (r *Registry[T]) Resolve(key string, admit func() error, create func(id string) T) (e T, created bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byKey[key]; ok {
		existing.lifecycle().attach()
		return existing, false, nil
	}
	if admit != nil {
		if err := admit(); err != nil {
			return e, false, err
		}
	}
	if !r.evictLocked(1) && r.refuseFull {
		return e, false, ErrRegistryFull
	}
	r.nextID++
	e = create(fmt.Sprintf(r.idFormat, r.nextID))
	l := e.lifecycle()
	r.byID[l.ID] = e
	if l.Key != "" {
		r.byKey[l.Key] = e
	}
	r.order = append(r.order, e)
	return e, true, nil
}

// Finish runs finish — the entry's terminal transition — and, if it
// won with an outcome that cannot be reused (failed or cancelled),
// drops the entry's key binding in the same registry-lock hold. The
// next identical submission then gets a fresh execution, mirroring
// tracestore's failed-materialisation retry; done entries keep their
// binding — that is the result cache.
//
// The single hold is the dedup-wedge fix: with the transition and the
// key release split across two lock acquisitions, a submission could
// attach to an entry that had already failed terminally — its SSE
// subscribers closed, its slot gone — and wait forever on a corpse.
// Here no Resolve can observe a terminally-failed entry that still
// owns its key.
func (r *Registry[T]) Finish(e T, finish func() bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !finish() {
		return false
	}
	l := e.lifecycle()
	if l.stateNow() != StateDone && r.byKey[l.Key] == e {
		delete(r.byKey, l.Key)
	}
	return true
}

// evictLocked drops terminal entries, oldest first, until room more
// would fit under max, and reports whether they do. Live entries are
// skipped; they age out after finishing.
func (r *Registry[T]) evictLocked(room int) bool {
	excess := len(r.order) + room - r.max
	if excess <= 0 {
		return true
	}
	kept := r.order[:0]
	for _, e := range r.order {
		l := e.lifecycle()
		if excess > 0 && l.stateNow().terminal() {
			delete(r.byID, l.ID)
			if r.byKey[l.Key] == e {
				delete(r.byKey, l.Key)
			}
			excess--
			continue
		}
		kept = append(kept, e)
	}
	clear(r.order[len(kept):]) // evicted entries must not stay reachable
	r.order = kept
	return excess <= 0
}

// Get looks an entry up by ID (the zero T when absent).
func (r *Registry[T]) Get(id string) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// List snapshots all resident entries in insertion order.
func (r *Registry[T]) List() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]T(nil), r.order...)
}

// Len returns the resident entry count.
func (r *Registry[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}
