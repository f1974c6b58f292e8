// Package memo is the bounded, single-flight cache behind every in-process
// memo of the program: parse and validity, design keys, compiled designs,
// bindings, stimuli, fingerprints, mutation sites, the in-memory result store
// and the LLM response cache.
//
// An entry is unclaimed, claimed by one computing goroutine, or published;
// it is never poisoned. The claim's owner publishes a value, aborts (the
// entry returns to unclaimed and a waiter adopts the claim) or drops (an
// abort that also takes the entry out of the cache). Do wraps that protocol
// around a compute function.
//
// Eviction is least recently used over a summed cost. Each entry's cost is
// fixed when it is inserted (1 unless Cost prices it), room is made before
// each insert, and an entry whose computation is in flight is pinned: the
// cache exceeds its limit only by pinned entries, and evicts back down as
// they publish or abort. An entry that alone costs more than the limit is
// handed to its caller but never kept.
package memo

import (
	"context"
	"sync"
	"sync/atomic"
)

// Cache maps keys to entries under a cost limit. It is safe for concurrent
// use. Set Cost and OnEvict before the cache is first used.
type Cache[K comparable, V any] struct {
	// Cost prices an entry by its key; nil prices every entry at 1.
	Cost func(K) int64
	// OnEvict, when set, is called with each published entry that eviction
	// removes, after the cache's lock is released.
	OnEvict func(K, V)

	mu          sync.Mutex
	m           map[K]*Entry[K, V]
	front, back *Entry[K, V] // most and least recently used
	cost, limit int64

	hits, misses, evictions uint64
}

// Entry is one memo slot. Its value is read-only once published.
type Entry[K comparable, V any] struct {
	c        *Cache[K, V]
	key      K
	val      V
	cost     int64
	claimed  atomic.Bool
	finished atomic.Bool
	// ready is made under c.mu by the first waiter that blocks, so an entry
	// nobody waits on never allocates one.
	ready      chan struct{}
	prev, next *Entry[K, V] // recency links, guarded by c.mu
}

// Stats is a snapshot of a cache's counters.
type Stats struct {
	Hits      uint64 // lookups that found a resident entry
	Misses    uint64 // lookups that found none
	Evictions uint64 // entries removed to make room
	Cost      int64  // summed cost of the resident entries
	Len       int    // resident entries
}

// New returns an empty cache whose resident entries cost at most limit in
// total. A limit of 0 keeps nothing.
func New[K comparable, V any](limit int64) *Cache[K, V] {
	return &Cache[K, V]{m: make(map[K]*Entry[K, V]), limit: limit}
}

func (c *Cache[K, V]) costOf(key K) int64 {
	if c.Cost == nil {
		return 1
	}
	return c.Cost(key)
}

// Acquire returns key's entry, inserting an unpublished one on a miss, and
// reports whether the caller now holds its claim: always for an inserted
// entry, and for a resident one that was unclaimed and unpublished (its
// previous owner aborted). An owner must publish, abort or drop the entry.
// A resident entry becomes the most recently used.
func (c *Cache[K, V]) Acquire(key K) (e *Entry[K, V], owner bool) {
	c.mu.Lock()
	if e = c.m[key]; e != nil {
		c.hits++
		c.touch(e)
		c.mu.Unlock()
		return e, !e.finished.Load() && e.claim()
	}
	c.mu.Unlock()
	e = &Entry[K, V]{c: c, key: key, cost: c.costOf(key)}
	e.claimed.Store(true)
	c.mu.Lock()
	if r := c.m[key]; r != nil { // inserted by another caller meanwhile
		c.hits++
		c.touch(r)
		c.mu.Unlock()
		return r, !r.finished.Load() && r.claim()
	}
	c.misses++
	victims := c.insert(e)
	c.mu.Unlock()
	c.evicted(victims)
	return e, true
}

// Do returns key's value, calling compute on a miss. Concurrent callers for
// one key share one computation: a caller that finds the entry in flight
// waits for it, and adopts the claim if its owner gives it up. If compute
// panics, the entry is dropped and the panic continues in the caller.
func (c *Cache[K, V]) Do(key K, compute func() V) V {
	e, owner := c.Acquire(key)
	if !owner {
		if e.finished.Load() {
			return e.val
		}
		v, adopted, _ := e.Wait(context.Background())
		if !adopted {
			return v
		}
	}
	published := false
	defer func() {
		if !published {
			e.Drop()
		}
	}()
	v := compute()
	e.Publish(v)
	published = true
	return v
}

// Peek returns key's published value without inserting an entry or waiting
// for one in flight. A hit becomes the most recently used entry.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[key]
	if e == nil || !e.finished.Load() {
		c.misses++
		return v, false
	}
	c.hits++
	c.touch(e)
	return e.val, true
}

// Put publishes v under key, replacing any resident entry. Holders of a
// replaced entry keep its value.
func (c *Cache[K, V]) Put(key K, v V) {
	e := &Entry[K, V]{c: c, key: key, val: v, cost: c.costOf(key)}
	e.claimed.Store(true)
	e.finished.Store(true)
	c.mu.Lock()
	if old := c.m[key]; old != nil {
		c.remove(old)
	}
	victims := c.insert(e)
	c.mu.Unlock()
	c.evicted(victims)
}

// Remove takes key's entry out of the cache. It counts no eviction and calls
// no OnEvict; a computation in flight on the entry still publishes to its
// waiters.
func (c *Cache[K, V]) Remove(key K) {
	c.mu.Lock()
	if e := c.m[key]; e != nil {
		c.remove(e)
	}
	c.mu.Unlock()
}

// Resident returns the cache's own copy of a resident key equal to key. It
// neither inserts nor counts nor changes recency, and keeps no reference to
// key, so key may view memory the caller reuses.
func (c *Cache[K, V]) Resident(key K) (K, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[key]; e != nil {
		return e.key, true
	}
	var zero K
	return zero, false
}

// SetLimit changes the cost limit, evicting down to it at once, and returns
// the previous limit.
func (c *Cache[K, V]) SetLimit(limit int64) int64 {
	c.mu.Lock()
	prev := c.limit
	c.limit = limit
	victims := c.evict(limit)
	c.mu.Unlock()
	c.evicted(victims)
	return prev
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Cost: c.cost, Len: len(c.m)}
}

// insert makes e resident after making room for it, unless it alone costs
// more than the limit, and returns the evicted entries (see evict). Callers
// hold c.mu.
func (c *Cache[K, V]) insert(e *Entry[K, V]) (victims *Entry[K, V]) {
	if e.cost > c.limit {
		return nil
	}
	victims = c.evict(c.limit - e.cost)
	c.m[e.key] = e
	e.prev, e.next = nil, c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
	c.cost += e.cost
	return victims
}

// evict removes least recently used entries until the resident cost is at
// most target, passing over pinned entries (claimed, not yet published);
// unclaimed ones go, since a waiter woken by an abort keeps its own pointer
// and adopts the entry anyway. It returns the evicted entries chained through
// next, for evicted to hand to OnEvict once the lock is released. Callers
// hold c.mu.
func (c *Cache[K, V]) evict(target int64) (victims *Entry[K, V]) {
	for e := c.back; e != nil && c.cost > target; {
		prev := e.prev
		if !e.claimed.Load() || e.finished.Load() {
			c.remove(e)
			c.evictions++
			e.next, victims = victims, e
		}
		e = prev
	}
	return victims
}

// evicted passes each published entry of an evict chain to OnEvict.
func (c *Cache[K, V]) evicted(victims *Entry[K, V]) {
	for e := victims; e != nil; {
		next := e.next
		e.next = nil
		if c.OnEvict != nil && e.finished.Load() {
			c.OnEvict(e.key, e.val)
		}
		e = next
	}
}

// remove unlinks a resident entry. Callers hold c.mu.
func (c *Cache[K, V]) remove(e *Entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
	delete(c.m, e.key)
	c.cost -= e.cost
}

// touch makes a resident entry the most recently used. Callers hold c.mu.
func (c *Cache[K, V]) touch(e *Entry[K, V]) {
	if c.front == e {
		return
	}
	// Unlink e (it is not the front, so it has a prev) and push it in front.
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, c.front
	c.front.prev = e
	c.front = e
}

// Key returns the entry's key.
func (e *Entry[K, V]) Key() K { return e.key }

// Value returns the published value; it is meaningful only once Done.
func (e *Entry[K, V]) Value() V { return e.val }

// Done reports whether the entry is published.
func (e *Entry[K, V]) Done() bool { return e.finished.Load() }

func (e *Entry[K, V]) claim() bool { return e.claimed.CompareAndSwap(false, true) }

// Publish stores the owner's value and wakes the waiters. The value must not
// be written afterwards.
func (e *Entry[K, V]) Publish(v V) {
	e.val = v
	e.finished.Store(true)
	e.wake(false)
}

// Abort releases the owner's claim without publishing: the entry returns to
// unclaimed and its waiters wake to race for the claim.
func (e *Entry[K, V]) Abort() { e.wake(true) }

// Drop is Abort that also takes the entry out of the cache, for an owner
// with nothing to publish. A waiter woken by the drop adopts the entry,
// which stays out of the cache whatever it publishes.
func (e *Entry[K, V]) Drop() {
	c := e.c
	c.mu.Lock()
	if c.m[e.key] == e {
		c.remove(e)
	}
	c.mu.Unlock()
	e.Abort()
}

// wake closes the entry's wake channel, first releasing the claim when
// release is set. The entry is no longer pinned, so if pinned entries held
// the cache over its limit, it evicts back down to it.
func (e *Entry[K, V]) wake(release bool) {
	c := e.c
	c.mu.Lock()
	ready := e.ready
	e.ready = nil
	if release {
		e.claimed.Store(false)
	}
	var victims *Entry[K, V]
	if c.cost > c.limit {
		victims = c.evict(c.limit)
	}
	c.mu.Unlock()
	if ready != nil {
		close(ready)
	}
	c.evicted(victims)
}

// Wait blocks until the entry is published, its claim frees up, or ctx is
// done. It returns (v, false, nil) for a published value; (zero, true, nil)
// when the caller adopted the claim of an owner that aborted, and must now
// publish, abort or drop the entry itself; and (zero, false, ctx.Err()) on
// cancellation, leaving the entry to its current owner.
func (e *Entry[K, V]) Wait(ctx context.Context) (v V, adopted bool, err error) {
	c := e.c
	for {
		if e.finished.Load() {
			return e.val, false, nil
		}
		if e.claim() {
			return v, true, nil
		}
		c.mu.Lock()
		if e.finished.Load() || !e.claimed.Load() {
			c.mu.Unlock()
			continue // published or released between the checks
		}
		if e.ready == nil {
			e.ready = make(chan struct{})
		}
		ready := e.ready
		c.mu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
}
