package testbench

// Persistent result-store integration. A compiled fingerprint run is a pure
// function of (design content, stimulus schedule content), so its FPTrace
// can be keyed by content hashes and reused across processes, restarts and
// machines. The in-process fpMemo (gang.go) stays tier 1: its single-flight
// claim is taken *before* the store is consulted, so a stampede on one key
// performs at most one store lookup and — on a miss — one simulation, with
// the result published to both the memo and the store. Store failures are
// never fatal: a broken or slow store degrades to simulation, and a
// panicking adapter is recovered here so it cannot take a ranking job down.
//
// What is persisted: clean traces and deterministic runtime errors (ErrRun),
// exactly the set the memo publishes. ErrSimPanic traces — transient
// crashes — are never written, mirroring the memo's abort discipline.
// Verdict-grade traces (VerifyGang) may stop short of the stimulus; they
// live under their own schedule hash, which also covers the golden they
// were cut against, and only verdict-grade lookups accept a short record.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/resultstore"
	"repro/internal/sim"
)

// --- Active store ------------------------------------------------------------

type storeBox struct{ s resultstore.Store }

var curStore atomic.Pointer[storeBox]

// SetStore installs s as the process-wide persistent fingerprint store and
// returns the previous one (nil when none). Pass nil to disable. The store
// is read on every compiled fingerprint miss; install it at startup,
// before ranking traffic.
func SetStore(s resultstore.Store) resultstore.Store {
	var old *storeBox
	if s == nil {
		old = curStore.Swap(nil)
	} else {
		old = curStore.Swap(&storeBox{s: s})
	}
	if old == nil {
		return nil
	}
	return old.s
}

// ActiveStore returns the installed persistent store, or nil.
func ActiveStore() resultstore.Store {
	if b := curStore.Load(); b != nil {
		return b.s
	}
	return nil
}

// --- Counters ----------------------------------------------------------------

// StoreStats is a snapshot of the process-wide simulation/store counters.
// Sims counts fingerprint simulations actually performed (one per
// candidate run); a fully warm process — every result served from memo or
// store — reports zero. The cross-process determinism test and the
// warm-restart smoke assert on exactly that.
type StoreStats struct {
	Sims     uint64 `json:"fp_sims"`
	Hits     uint64 `json:"store_hits"`
	Misses   uint64 `json:"store_misses"`
	Puts     uint64 `json:"store_puts"`
	PutFails uint64 `json:"store_put_fails"`
	// Remote-tier resilience counters, mirrored from the resultstore
	// remote adapter: GET retries absorbed, breaker trips, and lookups
	// fast-failed while the circuit was open.
	RemoteRetries      uint64 `json:"remote_retries"`
	RemoteBreakerTrips uint64 `json:"remote_breaker_trips"`
	RemoteFastFails    uint64 `json:"remote_fast_fails"`
}

var (
	statSims     atomic.Uint64
	statHits     atomic.Uint64
	statMisses   atomic.Uint64
	statPuts     atomic.Uint64
	statPutFails atomic.Uint64
)

// ReadStoreStats snapshots the counters.
func ReadStoreStats() StoreStats {
	remote := resultstore.ReadRemoteStats()
	return StoreStats{
		Sims:               statSims.Load(),
		Hits:               statHits.Load(),
		Misses:             statMisses.Load(),
		Puts:               statPuts.Load(),
		PutFails:           statPutFails.Load(),
		RemoteRetries:      remote.Retries,
		RemoteBreakerTrips: remote.BreakerTrips,
		RemoteFastFails:    remote.FastFails,
	}
}

// ResetStoreStats zeroes the counters (tests and benchmarks).
func ResetStoreStats() {
	statSims.Store(0)
	statHits.Store(0)
	statMisses.Store(0)
	statPuts.Store(0)
	statPutFails.Store(0)
}

// --- Content keys ------------------------------------------------------------

// contentHash returns the stimulus's stable content hash: a hex SHA-256
// over the bound interface and the compiled schedule — names, widths, step
// layout, and both stimulus planes. It is "" for irregular stimuli (no
// compiled schedule), which therefore never touch the persistent store.
// Computed once per Stimulus; cached stimuli amortize it across every
// candidate and run that shares them.
func (st *Stimulus) contentHash() string {
	st.chashOnce.Do(func() {
		sched := st.schedule()
		if sched == nil {
			return
		}
		h := sha256.New()
		var scratch [8]byte
		wu64 := func(v uint64) {
			binary.LittleEndian.PutUint64(scratch[:], v)
			h.Write(scratch[:])
		}
		wstr := func(s string) {
			wu64(uint64(len(s)))
			h.Write([]byte(s))
		}
		wstr("vfocus-fpkey-v1")
		wstr(st.Ifc.Clock)
		wstr(st.Ifc.Reset)
		if st.Ifc.ResetActiveLow {
			wu64(1)
		} else {
			wu64(0)
		}
		wu64(uint64(len(st.Ifc.Inputs)))
		for _, p := range st.Ifc.Inputs {
			wstr(p.Name)
			wu64(uint64(p.Width))
		}
		wu64(uint64(len(st.Ifc.Outputs)))
		for _, p := range st.Ifc.Outputs {
			wstr(p.Name)
			wu64(uint64(p.Width))
		}
		wu64(uint64(len(sched.names)))
		for i, name := range sched.names {
			wstr(name)
			wu64(uint64(sched.widths[i]))
		}
		wu64(uint64(len(sched.stepOff)))
		for _, off := range sched.stepOff {
			wu64(uint64(off))
		}
		wu64(uint64(sched.rowWords))
		wu64(uint64(len(sched.val)))
		for _, w := range sched.val {
			wu64(w)
		}
		for _, w := range sched.xz {
			wu64(w)
		}
		st.chash = hex.EncodeToString(h.Sum(nil))
	})
	return st.chash
}

// storeKeyFor derives the persistent-store key for a memo key, or ok=false
// when either side has no content address (no source key, irregular
// stimulus). The design half is sim.ContentHash of the memo key's normal
// design key and top module. A verdict-grade key's schedule hash is the
// stimulus hash re-hashed with SHA-256 over the golden's case fingerprints:
// a prefix cut against one golden must never answer for another, even when
// two tasks share an interface and therefore a stimulus.
func storeKeyFor(k fpKey) (resultstore.Key, bool) {
	if k.design == "" {
		return resultstore.Key{}, false
	}
	sh := k.st.contentHash()
	if sh == "" {
		return resultstore.Key{}, false
	}
	dh := sim.ContentHash(k.design, k.top)
	if k.ref != nil {
		h := sha256.New()
		h.Write([]byte("vfocus-verdict-v1\x00"))
		h.Write([]byte(sh))
		var scratch [8]byte
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(k.ref.CaseFPs)))
		h.Write(scratch[:])
		for _, fp := range k.ref.CaseFPs {
			binary.LittleEndian.PutUint64(scratch[:], fp)
			h.Write(scratch[:])
		}
		sh = hex.EncodeToString(h.Sum(nil))
	}
	return resultstore.Key{DesignHash: dh, ScheduleHash: sh}, true
}

// --- FPTrace wire codec -------------------------------------------------------

// Wire format (little-endian):
//
//	version u8, flags u8 (bit0 = has error, bit1 = error is ErrRun),
//	nCases u32, nCases x case-fingerprint u64, error message bytes.
//
// Integrity (checksums, atomicity) is the adapter's job; this layer only
// needs structural validation.
const fpWireVersion = 1

// storedRunErr reconstitutes a persisted deterministic run error. Agreement
// (FPAgrees) and clustering compare errors by message, and errors.Is must
// keep classifying it as ErrRun, so the decoded error preserves the exact
// original message and answers Is(ErrRun).
type storedRunErr struct{ msg string }

func (e *storedRunErr) Error() string { return e.msg }

// Is marks the decoded error as an ErrRun for errors.Is, matching the
// sentinel the original wrapped.
func (e *storedRunErr) Is(target error) bool { return target == ErrRun }

// encodeFPTrace serializes tr for the store, or nil for traces that must
// not be persisted (transient ErrSimPanic results).
func encodeFPTrace(tr *FPTrace) []byte {
	if tr == nil || (tr.Err != nil && errors.Is(tr.Err, ErrSimPanic)) {
		return nil
	}
	var flags byte
	var msg string
	if tr.Err != nil {
		flags |= 1
		if errors.Is(tr.Err, ErrRun) {
			flags |= 2
		}
		msg = tr.Err.Error()
	}
	buf := make([]byte, 0, 2+4+8*len(tr.CaseFPs)+len(msg))
	buf = append(buf, fpWireVersion, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tr.CaseFPs)))
	for _, fp := range tr.CaseFPs {
		buf = binary.LittleEndian.AppendUint64(buf, fp)
	}
	buf = append(buf, msg...)
	return buf
}

// decodeFPTrace parses a stored record back into a trace bound to ifc.
// Structural damage — including an ErrRun flag without an error, which no
// encoder writes — returns ok=false and the caller treats it as a miss.
func decodeFPTrace(data []byte, ifc Interface) (*FPTrace, bool) {
	if len(data) < 6 || data[0] != fpWireVersion || data[1]&^byte(3) != 0 || data[1] == 2 {
		return nil, false
	}
	flags := data[1]
	n := int(binary.LittleEndian.Uint32(data[2:]))
	if n < 0 || len(data) < 6+8*n {
		return nil, false
	}
	tr := &FPTrace{Ifc: ifc, CaseFPs: make([]uint64, n)}
	for i := 0; i < n; i++ {
		tr.CaseFPs[i] = binary.LittleEndian.Uint64(data[6+8*i:])
	}
	if flags&1 != 0 {
		msg := string(data[6+8*n:])
		if flags&2 != 0 {
			tr.Err = &storedRunErr{msg: msg}
		} else {
			tr.Err = errors.New(msg)
		}
	} else if len(data) != 6+8*n {
		return nil, false
	}
	return tr, true
}

// decodeStored decodes a record read under key k and rejects one that no
// run under k could have written: more cases than the stimulus holds, or —
// outside verdict-grade keys — a clean record that stops short of the last
// case (a verdict prefix must never reach ranking as a full trace). A
// verdict-grade clean record holds at least one case, since a run is cut
// only after a case it finished. A rejected record is a miss.
func decodeStored(data []byte, k fpKey) (*FPTrace, bool) {
	tr, ok := decodeFPTrace(data, k.st.Ifc)
	if !ok {
		return nil, false
	}
	n, want := len(tr.CaseFPs), k.st.NumCases()
	switch {
	case n > want:
		return nil, false
	case tr.Err == nil && n < want && (k.ref == nil || n == 0):
		return nil, false
	}
	return tr, true
}

// --- Lookup / publish ---------------------------------------------------------

// storeLookup consults the persistent store for key. It returns a decoded,
// publishable trace on a hit and nil otherwise. Adapter errors, panics and
// records that fail decodeStored degrade to a miss: the caller simply
// simulates.
func storeLookup(ctx context.Context, key fpKey) *FPTrace {
	box := curStore.Load()
	if box == nil {
		return nil
	}
	k, ok := storeKeyFor(key)
	if !ok {
		return nil
	}
	data, hit, err := func() (data []byte, hit bool, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("store get panicked: %v", r)
			}
		}()
		return box.s.Get(ctx, k)
	}()
	if err != nil || !hit {
		statMisses.Add(1)
		return nil
	}
	tr, ok := decodeStored(data, key)
	if !ok {
		// Invalid despite the adapter's integrity checks (e.g. a foreign
		// writer, or a record of the wrong grade): drop it and recompute.
		statMisses.Add(1)
		return nil
	}
	statHits.Add(1)
	return tr
}

// storePut publishes a just-computed trace to the persistent store,
// best-effort: errors and panics are counted, never surfaced — the run
// already has its result. Traces the memo would not publish (ErrSimPanic)
// are not persisted either.
func storePut(ctx context.Context, key fpKey, tr *FPTrace) {
	box := curStore.Load()
	if box == nil {
		return
	}
	data := encodeFPTrace(tr)
	if data == nil {
		return
	}
	k, ok := storeKeyFor(key)
	if !ok {
		return
	}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("store put panicked: %v", r)
			}
		}()
		return box.s.Put(ctx, k, data)
	}()
	if err != nil {
		statPutFails.Add(1)
		return
	}
	statPuts.Add(1)
}
