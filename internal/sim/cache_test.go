package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/verilog/parser"
)

// TestCacheInFlightEntryPinnedDuringEviction regression-tests LRU eviction
// against unresolved entries. With a capacity-1 cache and one compilation
// blocked mid-flight, inserting other keys runs the eviction loop; evicting
// the in-flight entry would hand every later caller of that key a fresh
// entry and a fresh compilation, breaking the single-flight guarantee
// exactly under a cold-key burst. The in-flight entry must stay pinned
// (resident and joinable) until its compile resolves.
func TestCacheInFlightEntryPinnedDuringEviction(t *testing.T) {
	c := NewCompileCache(1)
	keyA := cacheKey{hash: "in-flight", top: "t"}
	var aCompiles, aRecompiles atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.get(keyA, func() (*Design, error) {
			aCompiles.Add(1)
			close(started)
			<-release
			return &Design{}, nil
		})
	}()
	<-started

	// Churn through other keys while A is still compiling; every insert runs
	// the eviction loop against the over-cap cache.
	for i := 0; i < 8; i++ {
		key := cacheKey{hash: fmt.Sprintf("filler-%d", i), top: "t"}
		if _, err := c.get(key, func() (*Design, error) { return &Design{}, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// A second caller for the in-flight key must join the existing entry; if
	// churn evicted it, this compile func would run instead.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.get(keyA, func() (*Design, error) {
			aRecompiles.Add(1)
			return &Design{}, nil
		})
	}()
	close(release)
	wg.Wait()

	if got := aCompiles.Load(); got != 1 {
		t.Errorf("in-flight key compiled %d times, want 1", got)
	}
	if got := aRecompiles.Load(); got != 0 {
		t.Errorf("second caller recompiled the in-flight key %d times, want 0", got)
	}
}

// TestCacheColdKeyBurstSingleFlight releases a burst of goroutines onto one
// cold key at once: exactly one compilation must run (run under -race, this
// also exercises the entry hand-off).
func TestCacheColdKeyBurstSingleFlight(t *testing.T) {
	c := NewCompileCache(4)
	var calls atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			d, err := c.get(cacheKey{hash: "burst", top: "t"}, func() (*Design, error) {
				calls.Add(1)
				return &Design{}, nil
			})
			if err != nil || d == nil {
				t.Errorf("burst get: d=%v err=%v", d, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("cold key compiled %d times under a concurrent burst, want 1", got)
	}
}

// TestCompileCacheCachesUnsupported: a design the register file refuses is
// a compile result like any other: Compile reports ErrUnsupported, and the
// cache answers a second request from memory with the same error.
func TestCompileCacheCachesUnsupported(t *testing.T) {
	parsed, err := parser.Parse(`
module top_module (
    input [63:0] a,
    input [7:0] b,
    output [63:0] y
);
    assign y = a[b[2:0] + 8'd7:b[2:0]];
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompileCache(4)
	for i := 0; i < 2; i++ {
		if d, err := c.Get(parsed, "top_module"); d != nil || !errors.Is(err, ErrUnsupported) {
			t.Fatalf("request %d: got (%v, %v), want ErrUnsupported", i, d, err)
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats: %d hits, %d misses; want 1 and 1", hits, misses)
	}
}
