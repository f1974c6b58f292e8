// Gang simulation: N candidate engines advanced in lockstep over one shared
// stimulus stream. The testbench decodes each schedule step row exactly once
// and broadcasts the decoded values into every live lane (Drive), then all
// lanes advance together (Advance) and fold their outputs into per-lane
// fingerprints (HashOutput). Lanes are fully independent — each engine keeps
// its own val/xz planes — so a gang run of any size is bit-identical to N
// solo runs; the gang only removes the per-candidate stimulus decode and
// improves locality by touching one row of stimulus words for all lanes.
package sim

// Gang runs several compiled Engines in lockstep. It is not safe for
// concurrent use; ranking workers each drive their own gang.
type Gang struct {
	lanes []glane
	live  []int32 // lanes still running, in lane order (compacted in place)
}

// glane is one candidate lane: its engine, resolved stimulus handles, the
// running per-case fingerprint, and the terminal error once retired.
type glane struct {
	d       *Design
	en      *Engine
	perCase bool // acquire a fresh engine per case (sequential lifecycle)
	clock   int  // clock input handle, -1 for combinational lanes
	ins     []int
	outs    []int
	hash    uint64
	err     error
}

// NewGang returns an empty gang with capacity for n lanes.
func NewGang(n int) *Gang {
	return &Gang{lanes: make([]glane, 0, n), live: make([]int32, 0, n)}
}

// AddLane registers one candidate design with its resolved handles and
// returns the lane id. A non-nil engine is the lane's standing instance,
// kept across cases (combinational interfaces, matching the solo path's
// shared instance); nil selects a fresh pooled engine per case (sequential
// interfaces, where cases must be independent).
func (g *Gang) AddLane(d *Design, en *Engine, clock int, ins, outs []int) int {
	id := len(g.lanes)
	g.lanes = append(g.lanes, glane{d: d, en: en, perCase: en == nil, clock: clock, ins: ins, outs: outs})
	g.live = append(g.live, int32(id))
	return id
}

// LiveLanes returns how many lanes are still running.
func (g *Gang) LiveLanes() int { return len(g.live) }

// Err returns the error that retired the lane, or nil while it runs.
func (g *Gang) Err(id int) error { return g.lanes[id].err }

// Hash returns the lane's running fingerprint for the current case.
func (g *Gang) Hash(id int) uint64 { return g.lanes[id].hash }

// BeginCase starts the next test case on every live lane: per-case lanes
// acquire a pooled engine, fingerprints reset to the FNV offset basis, and
// clocked lanes drive their clock low — the exact preamble of a solo
// scheduled case run.
func (g *Gang) BeginCase() {
	for _, id := range g.live {
		ln := &g.lanes[id]
		if ln.perCase {
			ln.en = ln.d.AcquireEngine()
		}
		ln.hash = FNVOffset64
		if ln.clock >= 0 {
			ln.en.SetInputUintH(ln.clock, 0)
		}
	}
}

// EndCase releases the per-case engines of every live lane.
func (g *Gang) EndCase() {
	for _, id := range g.live {
		ln := &g.lanes[id]
		if ln.perCase {
			ln.d.ReleaseEngine(ln.en)
			ln.en = nil
		}
	}
}

// Retire withdraws a running lane between cases without an error: it takes
// no further part in the gang and its Err stays nil. Retiring an already
// retired or failed lane is a no-op.
func (g *Gang) Retire(id int) { g.live = dropLane(g.live, int32(id)) }

// Drive stores one decoded stimulus value into drive position pos of every
// live lane. The Value may be a view over shared schedule planes: engines
// only read it during the call.
func (g *Gang) Drive(pos int, v Value) {
	for _, id := range g.live {
		ln := &g.lanes[id]
		ln.en.SetInputH(ln.ins[pos], v)
	}
}

// Advance moves every live lane one step — a full clock cycle for clocked
// lanes, a settle otherwise. A lane that fails is retired with its error
// (engine returned to its pool) and takes no further part in the gang; the
// others continue, exactly as independent solo runs would.
func (g *Gang) Advance() {
	n := 0
	for _, id := range g.live {
		ln := &g.lanes[id]
		var err error
		if ln.clock >= 0 {
			err = ln.en.TickH(ln.clock)
		} else {
			err = ln.en.Settle()
		}
		if err != nil {
			ln.err = err
			if ln.en != nil {
				ln.d.ReleaseEngine(ln.en)
				ln.en = nil
			}
			continue
		}
		g.live[n] = id
		n++
	}
	g.live = g.live[:n]
}

// HashOutput folds output column col at the given rendering width into every
// live lane's case fingerprint, followed by the newline separator — the same
// byte stream the solo scheduled fingerprint run folds.
func (g *Gang) HashOutput(col, width int) {
	for _, id := range g.live {
		ln := &g.lanes[id]
		h := ln.en.HashOutputH(ln.hash, ln.outs[col], width)
		ln.hash = (h ^ uint64('\n')) * FNVPrime64
	}
}

// Close releases every engine still held (standing combinational engines,
// or per-case engines if the caller abandoned a case midway).
func (g *Gang) Close() {
	for i := range g.lanes {
		ln := &g.lanes[i]
		if ln.en != nil {
			ln.d.ReleaseEngine(ln.en)
			ln.en = nil
		}
	}
	g.live = g.live[:0]
}
