package eval

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// sizedText returns a valid candidate whose length does not depend on i.
func sizedText(i int) string {
	return fmt.Sprintf("module top_module(input a, input b, output y);\n    assign y = a & b; // %04d\nendmodule\n", i)
}

// TestFrontEndMemoSecondChance fills a memo that fits three entries, hits
// the oldest, and inserts a fourth: the hit made the oldest entry the most
// recently used, so the next one is evicted instead.
func TestFrontEndMemoSecondChance(t *testing.T) {
	charge := int64(FrontEndChargePerByte * len(sizedText(0)))
	f := newFrontEndMemo(3 * charge)
	for i := 0; i < 3; i++ {
		f.lookup(sizedText(i))
	}
	first := f.lookup(sizedText(0)).src
	f.lookup(sizedText(3))
	st := f.Stats()
	if st.Entries != 3 || st.Evictions != 1 || st.Bytes != 3*charge {
		t.Fatalf("after the fourth insert: %+v, want 3 entries, 1 eviction, %d bytes", st, 3*charge)
	}
	if f.lookup(sizedText(0)).src != first {
		t.Error("the referenced entry was evicted")
	}
	misses := f.Stats().Misses
	if f.lookup(sizedText(1)); f.Stats().Misses != misses+1 {
		t.Error("the unreferenced oldest-but-one entry is still resident")
	}
}

// TestFrontEndMemoBudget streams every golden through a small memo: the
// resident charge never exceeds the budget, a hit returns the resident AST,
// and a text parsed again after its eviction yields an equal AST.
func TestFrontEndMemoBudget(t *testing.T) {
	const budget = 64 << 10
	f := newFrontEndMemo(budget)
	suite := Suite()
	first := make([]*frontEntry, len(suite))
	for i, task := range suite {
		e := f.lookup(task.Golden)
		if e.err != nil || !e.valid {
			t.Fatalf("%s: golden err %v, valid %v", task.ID, e.err, e.valid)
		}
		if hit := f.lookup(task.Golden); hit != e {
			t.Fatalf("%s: a hit returned a different entry", task.ID)
		}
		if b := f.Stats().Bytes; b > budget {
			t.Fatalf("resident charge %d over the %d budget", b, budget)
		}
		first[i] = e
	}
	st := f.Stats()
	if st.Evictions == 0 || st.Misses != uint64(len(suite)) || st.Hits != uint64(len(suite)) {
		t.Fatalf("stats %+v: want evictions, %d misses and %d hits", st, len(suite), len(suite))
	}
	for i, task := range suite {
		again := f.lookup(task.Golden)
		if !reflect.DeepEqual(again.src, first[i].src) {
			t.Fatalf("%s: the AST parsed after eviction differs from the first", task.ID)
		}
	}
}

// TestFrontEndMemoVerdicts checks what an entry records: a parse error, a
// parse without the top module or with a semantic error (invalid), and a
// valid candidate; an entry charged over the whole budget is answered but
// never resident.
func TestFrontEndMemoVerdicts(t *testing.T) {
	f := newFrontEndMemo(1 << 20)
	cases := []struct {
		text          string
		parses, valid bool
	}{
		{"module top_module(input a, output y); assign y = ; endmodule\n", false, false},
		{"module other(input a, output y); assign y = a; endmodule\n", true, false},
		{"module top_module(input a, output y); assign y = nope; endmodule\n", true, false},
		{"module top_module(input a, output y); assign y = ~a; endmodule\n", true, true},
	}
	for _, c := range cases {
		e := f.lookup(c.text)
		if (e.err == nil) != c.parses || e.valid != c.valid {
			t.Errorf("%q: err %v, valid %v; want parses %v, valid %v", c.text, e.err, e.valid, c.parses, c.valid)
		}
	}
	small := newFrontEndMemo(int64(FrontEndChargePerByte*len(sizedText(0))) - 1)
	if e := small.lookup(sizedText(0)); !e.valid {
		t.Fatalf("over-budget entry: err %v, want a valid answer", e.err)
	}
	if st := small.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 1 {
		t.Fatalf("over-budget entry kept: %+v", st)
	}
}

// TestFrontEndMemoDropsKeys evicts an AST whose design keys were memoized:
// its keys are printed again afterwards, because eviction dropped them.
func TestFrontEndMemoDropsKeys(t *testing.T) {
	charge := int64(FrontEndChargePerByte * len(sizedText(0)))
	f := newFrontEndMemo(charge)
	src := f.lookup(sizedText(0)).src
	want := sim.NormalKey(src)
	normal, _ := sim.DesignKeyPrints()
	if sim.NormalKey(src); !printed(normal, 0) {
		t.Fatal("a resident AST's NormalKey was printed again")
	}
	f.lookup(sizedText(1)) // evicts sizedText(0)
	if f.Stats().Evictions != 1 {
		t.Fatalf("stats %+v, want one eviction", f.Stats())
	}
	if got := sim.NormalKey(src); got != want || !printed(normal, 1) {
		t.Fatalf("after eviction: key %.8s (want %.8s), printed anew: %v", got, want, printed(normal, 1))
	}
}

// printed reports whether exactly n NormalKeys were printed since the
// counter read before.
func printed(before uint64, n uint64) bool {
	now, _ := sim.DesignKeyPrints()
	return now-before == n
}

// TestFrontEndMemoSingleFlight looks one new text up from many goroutines
// at once: it is parsed once and every caller gets the same AST.
func TestFrontEndMemoSingleFlight(t *testing.T) {
	f := newFrontEndMemo(1 << 20)
	const callers = 16
	got := make([]*frontEntry, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = f.lookup(sizedText(0))
		}()
	}
	wg.Wait()
	for _, e := range got[1:] {
		if e.src != got[0].src {
			t.Fatal("concurrent callers got different ASTs")
		}
	}
	if st := f.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", st, callers-1)
	}
}

// TestFrontEndMemoConcurrentEviction streams the goldens through a small
// memo from several goroutines at once, so hits, misses and evictions
// interleave: every lookup answers its own text, and once the lookups are
// done one more insert brings the resident charge within the budget (an
// entry still being parsed is never evicted, so the charge may overshoot
// while parses are in flight).
func TestFrontEndMemoConcurrentEviction(t *testing.T) {
	const budget, workers, rounds = 32 << 10, 8, 3
	f := newFrontEndMemo(budget)
	suite := Suite()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range suite {
					task := suite[(i+w*len(suite)/workers)%len(suite)]
					e := f.lookup(task.Golden)
					if e.text != task.Golden || !e.valid || e.src.FindModule(TopModule) == nil {
						t.Errorf("%s: lookup answered another text or an invalid entry (err %v)", task.ID, e.err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	f.lookup(sizedText(0))
	if st := f.Stats(); st.Bytes > budget || st.Evictions == 0 {
		t.Fatalf("stats %+v: want evictions and at most %d bytes resident", st, budget)
	}
}

// TestFrontEndMemoIntern: intern answers a resident text with the memo's own
// string and a non-resident one with a miss, and it changes nothing the memo
// keeps or counts. An interned lookup leaves recency alone, so eviction
// still takes the entry it would have taken without the lookup.
func TestFrontEndMemoIntern(t *testing.T) {
	charge := int64(FrontEndChargePerByte * len(sizedText(0)))
	f := newFrontEndMemo(3 * charge)
	for i := 0; i < 3; i++ {
		f.lookup(sizedText(i))
	}
	before := f.Stats()
	text := []byte(sizedText(0))
	got, ok := f.intern(text)
	resident, _ := f.m.Resident(sizedText(0))
	if !ok || got != sizedText(0) || unsafe.StringData(got) != unsafe.StringData(resident) {
		t.Fatalf("intern(resident) = %q, %v; want the memo's own string", got, ok)
	}
	if got, ok := f.intern([]byte(sizedText(9))); ok || got != "" {
		t.Fatalf("intern(absent) = %q, %v; want a miss", got, ok)
	}
	if after := f.Stats(); after != before {
		t.Fatalf("stats moved from %+v to %+v", before, after)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.intern(text) }); allocs != 0 {
		t.Errorf("intern allocates %.0f times per call, want 0", allocs)
	}
	f.lookup(sizedText(3))
	if _, ok := f.intern(text); ok {
		t.Error("the interned oldest entry survived eviction: intern refreshed it")
	}
}
