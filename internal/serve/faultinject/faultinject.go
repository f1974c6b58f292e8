// Package faultinject is a deterministic, hook-based fault-injection
// harness for the vfocusd robustness suite. Production code marks
// interesting execution points with Fire(point, key); tests Arm those
// points with an action (panic, cancel a captured context, sleep) that
// runs on the n-th matching Fire. When nothing is armed — the only state
// a production process ever sees — Fire is a single atomic load and
// allocates nothing, so hooks are safe to place on simulation hot paths.
//
// Actions are counted per (point, key) arm, so a test can target e.g.
// "the 3rd simulated case of exactly this candidate" and replay it
// identically under -race. The package deliberately has no build-tag
// variant: the disabled fast path is cheap enough to keep compiled in,
// and one binary serving both production and fault drills is exactly
// what the daemon's tests need.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Point names an instrumented execution site.
type Point string

// Instrumented sites. Keys at each site are documented next to the Fire
// call; "" arms match any key.
const (
	// PointSimCase fires once per (candidate, test case) on the
	// fingerprint path, keyed by the candidate's canonical design hash. Panicking here models a simulator crash mid-candidate;
	// cancelling here models cancel-at-step-N.
	PointSimCase Point = "testbench.sim.case"
	// PointBind fires inside the single-flight binding resolution, keyed
	// by "". Panicking here models a binder crash while holding the claim.
	PointBind Point = "testbench.bind"
	// PointRankBatch fires before each ranking worker's unit of designs,
	// keyed by "".
	PointRankBatch Point = "core.rank.batch"
	// PointSchedRun fires in a scheduler worker just before it invokes a
	// job's task, keyed by the job ID. Panicking here models a worker
	// crash outside the compute path's own recovery.
	PointSchedRun Point = "sched.worker.run"
	// PointStorePut fires inside the disk result-store adapter after the
	// temp record is fully written but before the atomic rename, keyed by
	// the entry's design hash. Cancelling here models a job killed
	// mid-publish; panicking models a crash with the temp file on disk.
	PointStorePut Point = "resultstore.disk.put"
	// PointLLMRequest fires in the reference LLM completions server after
	// the request is decoded and before it is dispatched to the backing
	// client, keyed by the request's task ID. Sleeping here models a slow
	// upstream (per-attempt timeout drills); panicking models a connection
	// torn before any response bytes.
	PointLLMRequest Point = "llm.server.request"
	// PointLLMResponse fires in the reference LLM completions server after
	// the response body is marshaled and before it is written, keyed by the
	// request's task ID. Panicking here models a connection torn between
	// headers and body.
	PointLLMResponse Point = "llm.server.response"
)

// armed flips on while at least one action is registered. It is the only
// state Fire reads on the disabled path.
var armed atomic.Bool

// Enabled reports whether any action is armed. Call sites whose key is
// costly to derive should guard the derivation with it.
func Enabled() bool { return armed.Load() }

type armKey struct {
	point Point
	key   string
}

type action struct {
	n      int64 // fire on the n-th matching call (1-based)
	seen   int64
	sticky bool // fire on every call from the n-th on, not just the n-th
	fn     func()
}

var (
	mu    sync.Mutex
	plans map[armKey][]*action
)

// Arm registers fn to run on the n-th (1-based) Fire of point whose key
// matches key; key "" matches every Fire of the point. fn runs on the
// firing goroutine and may panic, sleep, or cancel a captured context.
// Arms are one-shot: after firing they stay exhausted until Reset.
func Arm(point Point, key string, n int, fn func()) {
	arm(point, key, n, false, fn)
}

// ArmFrom is Arm, but sticky: fn runs on the n-th matching Fire and every
// one after it until Reset. Use it for faults the code under test may retry
// past — e.g. a simulated crash that must crash every run of its candidate,
// so the fault stays attached to that candidate.
func ArmFrom(point Point, key string, n int, fn func()) {
	arm(point, key, n, true, fn)
}

func arm(point Point, key string, n int, sticky bool, fn func()) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	if plans == nil {
		plans = make(map[armKey][]*action)
	}
	k := armKey{point: point, key: key}
	plans[k] = append(plans[k], &action{n: int64(n), sticky: sticky, fn: fn})
	armed.Store(true)
}

// Reset disarms everything. Tests must defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	plans = nil
	armed.Store(false)
}

// Fire reports the execution site (point, key) was reached. With nothing
// armed it is one atomic load; with arms present it runs (outside the
// registry lock) every matching action whose count just came due.
func Fire(point Point, key string) {
	if !armed.Load() {
		return
	}
	fire(point, key)
}

func fire(point Point, key string) {
	var due []func()
	keys := [2]armKey{{point: point, key: key}, {point: point, key: ""}}
	match := keys[:2]
	if key == "" {
		match = keys[:1] // the two candidates coincide: match once
	}
	mu.Lock()
	for _, k := range match {
		for _, a := range plans[k] {
			a.seen++
			if a.seen == a.n || (a.sticky && a.seen > a.n) {
				due = append(due, a.fn)
			}
		}
	}
	mu.Unlock()
	for _, fn := range due {
		fn()
	}
}
