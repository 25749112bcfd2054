package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// flight is the one single-flight cache implementation shared by the
// engine's in-memory tiers (the base stage and the whole-result-set
// memo). It guarantees that a value is computed at most once per key
// while the computation succeeds, shares in-flight computations between
// concurrent callers, and counts hits and misses uniformly.
//
// Error retention is the only axis on which the tiers differ, so it is
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
// at most once overall. Callers that must never abandon a wait pass
// context.Background().
func (f *flight[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	for {
		f.mu.Lock()
		s, ok := f.slots[key]
		if !ok {
			break // this caller computes; f.mu still held
		}
		f.mu.Unlock()
		if v, err, settled := f.wait(ctx, key, s); settled {
			return v, err
		}
	}
	if err := ctx.Err(); err != nil {
		f.mu.Unlock()
		var zero V
		return zero, err
	}
	s := &slot[V]{ready: make(chan struct{})}
	f.slots[key] = s
	f.mu.Unlock()
	f.misses.Add(1)

	f.run(key, s, compute)
	return s.val, s.err
}

// wait blocks on another caller's slot s for key and returns its
// outcome, counting a hit. It honours ctx: a waiter must not be pinned
// to another caller's long computation after its own work is
// cancelled. settled is false when the computation failed and its slot
// was dropped — the failure was caller-dependent (e.g. the computing
// caller's cancellation) — and ctx is still live: the caller retries.
func (f *flight[K, V]) wait(ctx context.Context, key K, s *slot[V]) (v V, err error, settled bool) {
	select {
	case <-s.ready:
	case <-ctx.Done():
		return v, ctx.Err(), true
	}
	if s.err == nil {
		f.hits.Add(1)
		return s.val, nil, true
	}
	// A retained slot means the failure is deterministic — share it.
	f.mu.Lock()
	retained := f.slots[key] == s
	f.mu.Unlock()
	if retained {
		f.hits.Add(1)
		return v, s.err, true
	}
	if err := ctx.Err(); err != nil {
		return v, err, true
	}
	return v, nil, false
}

// run computes s, the slot this caller created for key, and settles
// it. A panicking compute must not strand the slot: left in the map
// with ready never closed, it would block every concurrent and future
// caller for the key (e.g. on the stale-digest invariant panic in
// cache.go). So the panic becomes the slot's error — settled under the
// normal retention policy, so waiters observe a real failure — and is
// then re-raised on the computing goroutine, which is the one that owns
// the broken invariant.
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

// settle applies the retention policy to s and then publishes its
// outcome by closing ready. The drop-from-map must happen before the
// close: waiters distinguish retained from dropped failures by checking
// whether the slot is still mapped after ready closes.
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

// len returns the number of retained entries.
func (f *flight[K, V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slots)
}
