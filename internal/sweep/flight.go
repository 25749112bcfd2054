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

	f.run(&claim[K, V]{keys: []K{key}, slots: []*slot[V]{s}, owned: []bool{true}, ready: s.ready},
		func() { s.val, s.err = compute() })
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

// claim is one caller's lookup of one or more keys: the slots serving
// them, which of those the caller created (and so must compute and
// settle), and the ready channel its own slots share. do's compute path
// is a claim of one key.
type claim[K comparable, V any] struct {
	keys  []K
	slots []*slot[V] // slots[i] serves keys[i]
	owned []bool     // owned[i]: this claim created slots[i]
	ready chan struct{}
}

// claimAll looks up every key under one lock and creates a slot for
// each one not in flight; the claim owns those, and they share one
// ready channel. A key listed twice is owned at its first position and
// found at the later ones. Every owned slot must be computed and
// settled through run before the caller waits on any slot it does not
// own: since a claim is taken atomically and settled before its owner
// waits, claims form a DAG in lock order and two callers claiming
// overlapping key sets cannot deadlock. ctx is consulted before
// anything is claimed.
func (f *flight[K, V]) claimAll(ctx context.Context, keys []K) (*claim[K, V], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := &claim[K, V]{
		keys:  keys,
		slots: make([]*slot[V], len(keys)),
		owned: make([]bool, len(keys)),
		ready: make(chan struct{}),
	}
	fresh := make([]slot[V], len(keys))
	owned := 0
	f.mu.Lock()
	for i, key := range keys {
		s, ok := f.slots[key]
		if !ok {
			s = &fresh[i]
			s.ready = c.ready
			f.slots[key] = s
			c.owned[i] = true
			owned++
		}
		c.slots[i] = s
	}
	f.mu.Unlock()
	f.misses.Add(uint64(owned))
	return c, nil
}

// set records the outcome of c's i-th key; run's compute calls it for
// every slot c owns. The owner writes a slot only before settling it,
// and waiters read it only after ready closes.
func (c *claim[K, V]) set(i int, v V, err error) {
	c.slots[i].val, c.slots[i].err = v, err
}

// run calls compute, which sets the outcome of every slot c owns, and
// settles them. A panicking compute must not strand the slots: left in
// the map with ready never closed, they would block every concurrent
// and future caller for their keys (e.g. on the stale-digest invariant
// panic in cache.go). So the panic becomes every owned slot's error —
// settled under the normal retention policy, so waiters observe a real
// failure — and is then re-raised on the computing goroutine, which is
// the one that owns the broken invariant.
func (f *flight[K, V]) run(c *claim[K, V], compute func()) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("sweep: cached computation panicked: %v", r)
			for i, s := range c.slots {
				if c.owned[i] {
					s.err = err
				}
			}
			f.settle(c)
			panic(r)
		}
	}()
	compute()
	f.settle(c)
}

// settle applies the retention policy to every slot c owns and then
// publishes their outcomes by closing the shared ready channel once.
// The drop-from-map must happen before the close: waiters distinguish
// retained from dropped failures by checking whether the slot is still
// mapped after ready closes.
func (f *flight[K, V]) settle(c *claim[K, V]) {
	for i, s := range c.slots {
		if c.owned[i] && s.err != nil && f.retain != nil && !f.retain(s.err) {
			f.mu.Lock()
			if f.slots[c.keys[i]] == s {
				delete(f.slots, c.keys[i])
			}
			f.mu.Unlock()
		}
	}
	close(c.ready)
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
