package testbench

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/resultstore"
)

// decodeStim is a stimulus of four cases; decodeStored reads only its
// interface and case count.
func decodeStim() *Stimulus {
	return &Stimulus{Ifc: combIfc(), Cases: make([]Case, 4)}
}

// TestStoreRejectsWrongGradeRecords feeds storeLookup records no run under
// the looked-up key could have written. Each must be a counted miss: a
// verdict prefix must never reach ranking as a full trace, and no record
// may hold more cases than the stimulus.
func TestStoreRejectsWrongGradeRecords(t *testing.T) {
	mem := resultstore.NewMemory(64)
	installStore(t, mem)
	st := NewGenerator(8201).Verification(combIfc())
	n := st.NumCases()
	src := mustParse(t, xorSrc)
	golden := &FPTrace{Ifc: st.Ifc, CaseFPs: make([]uint64, n)}
	plain := memoKey(src, "top_module", st, nil)
	verdict := memoKey(src, "top_module", st, golden)
	fps := func(k int) []uint64 { return make([]uint64, k) }
	runErr := &storedRunErr{msg: "run failed: loop"}

	for _, tc := range []struct {
		name string
		key  fpKey
		tr   *FPTrace
		hit  bool
	}{
		{"full clean", plain, &FPTrace{CaseFPs: fps(n)}, true},
		{"clean prefix under full key", plain, &FPTrace{CaseFPs: fps(2)}, false},
		{"clean empty under full key", plain, &FPTrace{CaseFPs: fps(0)}, false},
		{"clean overlong", plain, &FPTrace{CaseFPs: fps(n + 1)}, false},
		{"error prefix", plain, &FPTrace{CaseFPs: fps(2), Err: runErr}, true},
		{"error overlong", plain, &FPTrace{CaseFPs: fps(n + 1), Err: runErr}, false},
		{"verdict prefix", verdict, &FPTrace{CaseFPs: fps(2)}, true},
		{"verdict full", verdict, &FPTrace{CaseFPs: fps(n)}, true},
		{"verdict empty clean", verdict, &FPTrace{CaseFPs: fps(0)}, false},
		{"verdict overlong", verdict, &FPTrace{CaseFPs: fps(n + 1)}, false},
		{"verdict error overlong", verdict, &FPTrace{CaseFPs: fps(n + 1), Err: runErr}, false},
	} {
		k, ok := storeKeyFor(tc.key)
		if !ok {
			t.Fatalf("%s: no store key", tc.name)
		}
		if err := mem.Put(context.Background(), k, encodeFPTrace(tc.tr)); err != nil {
			t.Fatal(err)
		}
		pre := ReadStoreStats()
		got := storeLookup(context.Background(), tc.key)
		post := ReadStoreStats()
		if (got != nil) != tc.hit {
			t.Errorf("%s: hit = %v, want %v", tc.name, got != nil, tc.hit)
		}
		if !tc.hit && post.Misses-pre.Misses != 1 {
			t.Errorf("%s: rejected record counted %d misses, want 1", tc.name, post.Misses-pre.Misses)
		}
	}

	// The two grades never share a store key, and a verdict key depends on
	// the golden it was cut against.
	kp, _ := storeKeyFor(plain)
	kv, _ := storeKeyFor(verdict)
	other := &FPTrace{Ifc: st.Ifc, CaseFPs: append(fps(n-1), 1)}
	ko, _ := storeKeyFor(memoKey(src, "top_module", st, other))
	if kp == kv || kv == ko {
		t.Fatalf("store keys collide: full %v, verdict %v, other golden %v", kp, kv, ko)
	}
}

// FuzzDecodeStored holds the store decoder to its contract on arbitrary
// bytes: it never panics, and whatever it accepts is a record some run under
// the key could have written, re-encoding to the exact input bytes.
func FuzzDecodeStored(f *testing.F) {
	st := decodeStim()
	golden := &FPTrace{Ifc: st.Ifc, CaseFPs: make([]uint64, st.NumCases())}
	for _, tr := range []*FPTrace{
		{CaseFPs: []uint64{1, 2, 3, 4}},
		{CaseFPs: []uint64{1, 2}},
		{CaseFPs: []uint64{7}, Err: &storedRunErr{msg: "run failed: no convergence"}},
		{CaseFPs: []uint64{1, 2, 3, 4, 5}},
	} {
		f.Add(encodeFPTrace(tr), false)
		f.Add(encodeFPTrace(tr), true)
	}
	f.Add([]byte{fpWireVersion, 2, 0, 0, 0, 0}, false)
	f.Add([]byte{fpWireVersion, 0, 0xff, 0xff, 0xff, 0xff}, true)
	f.Fuzz(func(t *testing.T, data []byte, verdictGrade bool) {
		k := fpKey{st: st}
		if verdictGrade {
			k.ref = golden
		}
		tr, ok := decodeStored(data, k)
		if !ok {
			return
		}
		n, want := len(tr.CaseFPs), st.NumCases()
		switch {
		case n > want:
			t.Fatalf("accepted %d cases for a %d-case stimulus", n, want)
		case tr.Err == nil && n < want && !verdictGrade:
			t.Fatalf("accepted a %d-case clean prefix under a full-trace key", n)
		case tr.Err == nil && n == 0 && want > 0:
			t.Fatal("accepted an empty clean record")
		}
		if re := encodeFPTrace(tr); !bytes.Equal(re, data) {
			t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", data, re)
		}
	})
}

// TestFPMemoEvictsAbortedClaims aborts more distinct claims than the memo
// holds: entries left unclaimed and unpublished must be evictable, or every
// cancelled run would pin its slots beyond the cap.
func TestFPMemoEvictsAbortedClaims(t *testing.T) {
	const limit = 8
	prev := SetFPMemoCap(limit)
	defer SetFPMemoCap(prev)
	for i := 0; i < 4*limit; i++ {
		e, owner := fpMemo.Acquire(fpKey{st: decodeStim()})
		if !owner {
			t.Fatal("fresh entry already claimed")
		}
		e.Abort()
	}
	if n := FPMemoLen(); n > limit {
		t.Fatalf("FPMemoLen = %d after aborting %d claims, want <= %d", n, 4*limit, limit)
	}

	// A waiter woken by an abort keeps its own pointer: once the orphaned
	// entry has been evicted, the waiter still adopts the claim and the
	// memo stays within its cap.
	key := fpKey{st: decodeStim()}
	e, _ := fpMemo.Acquire(key)
	e.Abort()
	for i := 0; i < limit; i++ {
		other, _ := fpMemo.Acquire(fpKey{st: decodeStim()})
		other.Abort()
	}
	if _, resident := fpMemo.Resident(key); resident {
		t.Fatal("aborted entry survived eviction")
	}
	if _, adopted, err := e.Wait(context.Background()); !adopted || err != nil {
		t.Fatalf("waiter on an evicted entry: adopted %v, err %v", adopted, err)
	}
	e.Abort()
	if n := FPMemoLen(); n > limit {
		t.Fatalf("FPMemoLen = %d, want <= %d", n, limit)
	}
}
