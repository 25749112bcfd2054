package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// flight is the one single-flight cache implementation shared by every
// stage of the engine (schedule, base, eval, and the whole-result-set
// memo). It guarantees that a value is computed at most once per key
// while the computation succeeds and its entry is not forgotten (see
// forget), shares in-flight computations between
// concurrent callers, and counts hits and misses uniformly.
//
// Error retention is the only axis on which the stages differ, so it is
// the one policy knob: retain decides whether a failed computation stays
// in the cache (deterministic failures — retrying an unschedulable
// problem cannot succeed) or is dropped so the next caller recomputes
// (caller-dependent failures, e.g. context cancellation). A nil retain
// retains every error.
//
// Cancellation semantics: ctx is consulted before starting a computation
// and while waiting on another caller's in-flight one; a computation once
// started always runs to completion and is never abandoned by its waiters
// observing cancellation elsewhere. A waiter that observes a dropped
// (non-retained) failure retries while its own context is live, so one
// cancelled caller cannot poison a concurrent one.
type flight[K comparable, V any] struct {
	// retain reports whether a computation error should stay cached.
	// nil retains all errors.
	retain func(error) bool

	mu    sync.Mutex
	slots map[K]*slot[V]

	// hits counts calls served by another caller's computation (shared
	// results and retained errors alike); misses counts computations
	// actually started. hits+misses is the number of observed requests,
	// except for calls that return early on their own cancelled context.
	hits, misses atomic.Uint64
}

// slot is one single-flight entry: the first requester computes, later
// requesters block on ready and share the outcome.
type slot[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// newFlight returns an empty flight with the given retention policy.
func newFlight[K comparable, V any](retain func(error) bool) *flight[K, V] {
	return &flight[K, V]{retain: retain, slots: map[K]*slot[V]{}}
}

// do returns the value for key, computing it with compute at most once
// concurrently and — while compute succeeds or fails deterministically —
// at most once until the entry is forgotten. Callers that must never abandon a wait pass
// context.Background().
func (f *flight[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var zero V
	for {
		f.mu.Lock()
		s, ok := f.slots[key]
		if !ok {
			break // this caller computes; f.mu still held
		}
		f.mu.Unlock()
		// Wait for the in-flight computation, but honour our own
		// context: a waiter must not be pinned to another caller's long
		// computation after its own work is cancelled.
		select {
		case <-s.ready:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if s.err == nil {
			f.hits.Add(1)
			return s.val, nil
		}
		// The computation failed. A retained slot means the failure is
		// deterministic — share it. A dropped slot means it was
		// caller-dependent (e.g. the computing caller's cancellation):
		// retry with our own context if it is still live.
		f.mu.Lock()
		retained := f.slots[key] == s
		f.mu.Unlock()
		if retained {
			f.hits.Add(1)
			return zero, s.err
		}
		if err := ctx.Err(); err != nil {
			return zero, err
		}
	}
	if err := ctx.Err(); err != nil {
		f.mu.Unlock()
		return zero, err
	}
	s := &slot[V]{ready: make(chan struct{})}
	f.slots[key] = s
	f.mu.Unlock()
	f.misses.Add(1)

	f.run(key, s, compute)
	return s.val, s.err
}

// run executes compute into s and settles the slot. A panicking compute
// must not strand the slot: before PR 4 the slot stayed in the map with
// ready never closed, so every concurrent and future caller for the key
// blocked forever (e.g. the stale-digest invariant panic in cache.go).
// Now the panic is converted into the slot's error — settled under the
// normal retention policy, so waiters observe a real failure — and then
// re-raised on the computing goroutine, which is the one that owns the
// broken invariant.
func (f *flight[K, V]) run(key K, s *slot[V], compute func() (V, error)) {
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("sweep: cached computation panicked: %v", r)
			f.settle(key, s)
			panic(r)
		}
	}()
	s.val, s.err = compute()
	f.settle(key, s)
}

// settle applies the retention policy and publishes the outcome. The
// drop-from-map must happen before close(ready): waiters distinguish
// retained from dropped failures by checking whether the slot is still
// mapped after ready closes.
func (f *flight[K, V]) settle(key K, s *slot[V]) {
	if s.err != nil && f.retain != nil && !f.retain(s.err) {
		f.mu.Lock()
		if f.slots[key] == s {
			delete(f.slots, key)
		}
		f.mu.Unlock()
	}
	close(s.ready)
}

// forget drops the entries of keys, so a later request for one of them
// starts afresh. Streaming sweeps use it to let go of results no later
// request of the run reads (see evalHolds).
func (f *flight[K, V]) forget(keys []K) {
	if len(keys) == 0 {
		return
	}
	f.mu.Lock()
	for _, k := range keys {
		delete(f.slots, k)
	}
	f.mu.Unlock()
}

// len returns the number of retained entries.
func (f *flight[K, V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slots)
}
