package memo

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestClaimPublishAbortDrop walks one key through the protocol: a miss
// hands the caller the claim, a second caller does not get it, abort frees
// it for the next caller, publish answers every later lookup, and drop takes
// the entry out of the cache.
func TestClaimPublishAbortDrop(t *testing.T) {
	c := New[string, int](4)
	e, owner := c.Acquire("a")
	if !owner || e.Done() {
		t.Fatalf("miss: owner %v, done %v; want the claim of an unpublished entry", owner, e.Done())
	}
	if again, owner := c.Acquire("a"); again != e || owner {
		t.Fatal("a second caller got a fresh entry or the held claim")
	}
	e.Abort()
	if again, owner := c.Acquire("a"); again != e || !owner {
		t.Fatal("the claim an owner aborted was not handed on")
	}
	e.Publish(7)
	if v, ok := c.Peek("a"); !ok || v != 7 {
		t.Fatalf("Peek = %d, %v; want 7", v, ok)
	}
	if again, owner := c.Acquire("a"); again != e || owner || again.Value() != 7 {
		t.Fatal("a published entry was claimed again or lost its value")
	}

	d, _ := c.Acquire("b")
	d.Drop()
	if _, ok := c.Resident("b"); ok || c.Len() != 1 {
		t.Fatalf("dropped entry resident (len %d)", c.Len())
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 2 || st.Cost != 1 || st.Len != 1 {
		t.Fatalf("stats %+v, want 4 hits, 2 misses, cost 1, len 1", st)
	}
}

// TestWaitAdoptsAbortedClaim blocks waiters on an in-flight entry and aborts
// it: exactly one waiter adopts the claim, publishes, and the others read
// that value.
func TestWaitAdoptsAbortedClaim(t *testing.T) {
	c := New[string, int](4)
	e, _ := c.Acquire("k")
	const waiters = 8
	var adopters atomic.Int32
	got := make([]int, waiters)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, adopted, err := e.Wait(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if adopted {
				adopters.Add(1)
				v = 42
				e.Publish(v)
			}
			got[i] = v
		}()
	}
	e.Abort()
	wg.Wait()
	if n := adopters.Load(); n != 1 {
		t.Fatalf("%d waiters adopted the claim, want 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("waiter %d read %d, want 42", i, v)
		}
	}
}

// TestWaitCancelled: a waiter whose context ends returns its error and
// leaves the claim with the owner.
func TestWaitCancelled(t *testing.T) {
	c := New[string, int](4)
	e, _ := c.Acquire("k")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		_, adopted, err := e.Wait(ctx)
		if adopted {
			t.Error("a cancelled waiter adopted a live claim")
		}
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, owner := c.Acquire("k"); owner {
		t.Fatal("the owner's claim was released by a cancelled waiter")
	}
	e.Publish(1)
}

// TestPinnedEntrySurvivesEviction churns a limit-1 cache past an entry
// whose computation is in flight: it stays resident and joinable, only
// published entries go, and once it publishes the cache is back within its
// limit.
func TestPinnedEntrySurvivesEviction(t *testing.T) {
	c := New[string, int](1)
	pinned, _ := c.Acquire("pinned")
	for i := 0; i < 8; i++ {
		c.Do(strconv.Itoa(i), func() int { return i })
	}
	if _, ok := c.Resident("pinned"); !ok {
		t.Fatal("an in-flight entry was evicted")
	}
	if e, owner := c.Acquire("pinned"); e != pinned || owner {
		t.Fatal("a caller of the in-flight key got a fresh entry")
	}
	if c.Len() > 2 {
		t.Fatalf("len %d: one pinned entry may hold the cache one past its limit, no further", c.Len())
	}
	pinned.Publish(0)
	if c.Len() != 1 {
		t.Fatalf("len %d after the pinned entry published, want the limit, 1", c.Len())
	}
}

// TestCostLimitEviction prices entries by key length: inserts evict least
// recently used entries until the new one fits, a hit refreshes recency, and
// an entry costing more than the whole limit is answered but never kept.
func TestCostLimitEviction(t *testing.T) {
	c := New[string, int](10)
	c.Cost = func(k string) int64 { return int64(len(k)) }
	for _, k := range []string{"aaa", "bbb", "ccc"} {
		c.Do(k, func() int { return len(k) })
	}
	c.Do("aaa", func() int { t.Fatal("hit recomputed"); return 0 })
	c.Do("dddd", func() int { return 4 }) // 9 + 4 > 10: evicts bbb only
	if _, ok := c.Resident("bbb"); ok {
		t.Error("least recently used entry survived")
	}
	if st := c.Stats(); st.Cost != 10 || st.Len != 3 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want cost 10 in 3 entries after 1 eviction", st)
	}

	big := "0123456789A"
	if v := c.Do(big, func() int { return 11 }); v != 11 {
		t.Fatalf("over-limit entry answered %d, want 11", v)
	}
	if _, ok := c.Resident(big); ok || c.Stats().Cost != 10 {
		t.Fatal("an entry costing more than the limit was kept")
	}

	c.SetLimit(4)
	if st := c.Stats(); st.Cost > 4 || st.Len != 1 {
		t.Fatalf("SetLimit(4) left %+v", st)
	}
}

// TestEvictHook: OnEvict sees each published entry eviction removes, with
// its value, and no entry Remove or Drop takes out.
func TestEvictHook(t *testing.T) {
	c := New[int, string](2)
	var evicted []int
	c.OnEvict = func(k int, v string) {
		if v != strconv.Itoa(k) {
			t.Errorf("evicted %d with value %q", k, v)
		}
		evicted = append(evicted, k)
	}
	for k := 0; k < 4; k++ {
		c.Do(k, func() string { return strconv.Itoa(k) })
	}
	c.Remove(3)
	e, _ := c.Acquire(9)
	e.Drop()
	if len(evicted) != 2 || evicted[0] != 0 || evicted[1] != 1 {
		t.Fatalf("evicted %v, want [0 1]", evicted)
	}
}

// TestPanickingDoLeavesNoEntry: a compute that panics leaves nothing behind,
// the panic reaches the caller, and the next caller computes afresh.
func TestPanickingDoLeavesNoEntry(t *testing.T) {
	c := New[string, int](4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not reach the caller")
			}
		}()
		c.Do("k", func() int { panic("boom") })
	}()
	if _, ok := c.Resident("k"); ok {
		t.Fatal("a panicking compute left an entry")
	}
	if v := c.Do("k", func() int { return 3 }); v != 3 {
		t.Fatalf("recompute = %d, want 3", v)
	}
}

// TestDoSingleFlight releases a burst of callers onto one cold key: one
// computation runs and every caller reads its value.
func TestDoSingleFlight(t *testing.T) {
	c := New[string, *int](4)
	var calls atomic.Int32
	gate := make(chan struct{})
	got := make([]*int, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			got[i] = c.Do("k", func() *int { calls.Add(1); return new(int) })
		}()
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d computations, want 1", n)
	}
	for _, p := range got {
		if p != got[0] {
			t.Fatal("callers read different values")
		}
	}
}

// TestHitAllocs: a hit allocates nothing, through Do, Acquire or Peek.
func TestHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation accounting")
	}
	c := New[string, int](4)
	c.Do("k", func() int { return 1 })
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		n += c.Do("k", func() int { return n })
		e, _ := c.Acquire("k")
		v, _ := c.Peek("k")
		n += e.Value() + v
	})
	if allocs != 0 {
		t.Fatalf("a hit allocates %.1f objects, want 0", allocs)
	}
}

// TestMissAllocs: a miss on a full cache allocates only its entry.
func TestMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation accounting")
	}
	const limit = 64
	c := New[int, int](limit)
	k := 0
	for ; k < 4*limit; k++ {
		c.Do(k, func() int { return k })
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k++
		c.Do(k, func() int { return k })
	})
	if allocs != 1 {
		t.Fatalf("a miss allocates %.1f objects, want 1 (the entry)", allocs)
	}
}
