// Package store is a guarded-analyzer fixture exercising all three
// sub-checks: //redhip:guardedby mutex discipline, atomic-field
// discipline, and the goroutine capture audit.
package store

import (
	"sync"
	"sync/atomic"
)

// Store mixes a mutex-guarded map, an atomically-bumped counter, and a
// plain counter touched from goroutines.
type Store struct {
	mu    sync.Mutex
	wg    sync.WaitGroup
	done  chan struct{}
	items map[string]int //redhip:guardedby mu
	hits  uint64
	ticks int
}

// Get locks the mutex before touching items.
func (s *Store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items[k]
}

// Peek reads items with no lock anywhere in its body.
func (s *Store) Peek(k string) int {
	return s.items[k] // want `field items is //redhip:guardedby mu`
}

// sizeLocked follows the called-with-lock-held naming convention.
func (s *Store) sizeLocked() int { return len(s.items) }

// seed populates the map before the store is shared with anyone.
//
//redhip:phase-exclusive construction: runs before any goroutine sees the store
func (s *Store) seed(k string, v int) {
	if s.items == nil {
		s.items = make(map[string]int)
	}
	s.items[k] = v
}

// Bump is the sanctioned atomic access to hits.
func (s *Store) Bump() { atomic.AddUint64(&s.hits, 1) }

// HitsRacy plain-reads a field Bump touches atomically.
func (s *Store) HitsRacy() uint64 {
	return s.hits // want `field hits is accessed via sync/atomic elsewhere`
}

// HitsFinal reads hits after every writer has been joined.
func (s *Store) HitsFinal() uint64 {
	s.wg.Wait()
	//redhip:phase-exclusive all writers joined by wg.Wait on the line above
	return s.hits
}

// SpinRacy bumps a plain counter from a goroutine with no discipline.
func (s *Store) SpinRacy() {
	s.wg.Add(1)
	go func() {
		s.ticks++ // want `field ticks is accessed from a goroutine closure`
		s.wg.Done()
	}()
}

// SpinDocumented carries the reviewed waiver for the same pattern.
func (s *Store) SpinDocumented() {
	s.wg.Add(1)
	go func() {
		//redhip:phase-exclusive exactly one goroutine owns ticks until wg.Wait
		s.ticks++
		s.wg.Done()
	}()
}

// SpinLocked takes the lock inside the closure, which the audit
// accepts, and signals on a channel field, which is safe by type.
func (s *Store) SpinLocked(k string) {
	go func() {
		s.mu.Lock()
		s.items[k]++
		s.mu.Unlock()
		close(s.done)
	}()
}

// Index is a generic guarded map. Instantiating it substitutes its
// field objects, which must still resolve to the annotated declaration.
type Index[T any] struct {
	mu   sync.Mutex
	byID map[string]T //redhip:guardedby mu
}

// Get locks the mutex before touching byID.
func (x *Index[T]) Get(id string) T {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.byID[id]
}

// Peek reads the type-parameterised field with no lock.
func (x *Index[T]) Peek(id string) T {
	return x.byID[id] // want `field byID is //redhip:guardedby mu`
}

// PeekInt reads it through a concrete instantiation with no lock.
func PeekInt(x *Index[int]) int {
	return x.byID["a"] // want `field byID is //redhip:guardedby mu`
}
