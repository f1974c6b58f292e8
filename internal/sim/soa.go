// SoA gang execution: every lane's register file lives in ONE shared val
// plane and ONE shared xz plane, partitioned lane-major with a fixed stride
// (the largest lane frame). Each lane owns an ALIASING Engine whose frame is
// its block of the shared planes and runs its own design's solo closures
// (regfile.go, or the boxed fallback) over it, so storeNet change records,
// the NBA arena, fanout dispatch, reset, and HashOutputH all work unchanged.
// The gang advances its lanes in lockstep, one stimulus step at a time, and
// planes, engines, and lane tables are pooled across gangs.
//
// Lanes whose designs are alpha-equivalent END TO END — same name-blind
// layout, same process signature at every pid (gangsig.go), same dispatch
// tables, same initial frame, same port binding — compute bit-identical
// trajectories on the shared stimulus, so only one leader lane per
// whole-design equivalence class executes and the rest mirror its
// fingerprints and errors by reference. Candidate pools make this common:
// register renames and repeated mutations produce textually distinct sources
// that are the same machine.
//
// Semantics are bit-identical to N independent solo engines, because each
// executing lane IS a solo engine: it steps with the solo Settle/TickH loop
// and its first error retires it. A retired lane drops out of the live list;
// its plane block is simply never touched again, so survivors' storage and
// fingerprints are unaffected by construction.
package sim

import (
	"sync"
)

// SoAGang runs several candidate designs over shared struct-of-arrays
// planes. Not safe for concurrent use.
type SoAGang struct {
	lanes []soaLane
	live  []int32

	sealed bool
	closed bool

	// dedup collapses whole-design equivalence classes to one executing
	// leader per class (see laneEqual); mirror[id] names the leader a lane
	// mirrors, or -1 for lanes that run themselves. Lane-level tests disable
	// dedup so identical lanes all execute.
	dedup  bool
	mirror []int32

	// Shared planes, one block of stride words per leader lane (sized at
	// seal). engines[id] frames lane id's block; laneErr[id] is the error
	// that retired it.
	stride  int32
	val, xz []uint64
	engines []*Engine
	laneErr []error
}

type soaLane struct {
	d       *Design
	perCase bool // sequential lifecycle: reset the lane engine every case
	clock   int
	ins     []int
	outs    []int
	hash    uint64
}

// soaGangPool recycles closed gangs: planes, engines, and lane tables keep
// their capacity across rank batches, so after warmup sealing a gang
// allocates (almost) nothing — the SoA analogue of the per-design engine
// pool.
var soaGangPool sync.Pool

// NewSoAGang returns an empty SoA gang with capacity for n lanes, recycling
// a pooled gang when one is available.
func NewSoAGang(n int) *SoAGang {
	sg, _ := soaGangPool.Get().(*SoAGang)
	if sg == nil {
		sg = &SoAGang{}
	}
	sg.dedup = true
	sg.sealed = false
	sg.closed = false
	if cap(sg.lanes) < n {
		sg.lanes = make([]soaLane, 0, n)
	} else {
		sg.lanes = sg.lanes[:0]
	}
	if cap(sg.live) < n {
		sg.live = make([]int32, 0, n)
	} else {
		sg.live = sg.live[:0]
	}
	return sg
}

// growI32 returns s resized to n elements, reallocating only when capacity
// is short. Contents are unspecified; callers initialize what they read.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// AddLane registers one candidate design and returns the lane id. A nil
// engine selects the sequential lifecycle (every case starts from reset); a
// non-nil one, the combinational lifecycle (one instance across cases). The
// SoA gang builds its own aliasing engines over the shared planes, so the
// engine passed in only signals the lifecycle and is returned to its pool.
// A clock handle >= 0 makes every Advance a full cycle of that input. Lanes
// must all be added before the first BeginCase.
func (sg *SoAGang) AddLane(d *Design, en *Engine, clock int, ins, outs []int) int {
	if en != nil {
		d.ReleaseEngine(en)
	}
	id := len(sg.lanes)
	sg.lanes = append(sg.lanes, soaLane{d: d, perCase: en == nil, clock: clock, ins: ins, outs: outs})
	sg.live = append(sg.live, int32(id))
	return id
}

// LiveLanes returns how many lanes are still running.
func (sg *SoAGang) LiveLanes() int { return len(sg.live) }

// leader resolves a lane to the lane that executes for it: a mirroring lane
// to its leader, every other lane (and every lane before seal) to itself.
func (sg *SoAGang) leader(id int) int {
	if sg.sealed && sg.mirror[id] >= 0 {
		return int(sg.mirror[id])
	}
	return id
}

// Err returns the error that retired the lane, or nil while it runs. A
// mirroring lane reports its leader's error: the two designs are the same
// machine, so the leader's failure is exactly the failure the mirror would
// have produced.
func (sg *SoAGang) Err(id int) error {
	if !sg.sealed {
		return nil
	}
	return sg.laneErr[sg.leader(id)]
}

// Hash returns the lane's running fingerprint for the current case
// (mirroring lanes read their leader's).
func (sg *SoAGang) Hash(id int) uint64 {
	return sg.lanes[sg.leader(id)].hash
}

// laneEqual reports whether lanes a and b are the same machine: identical
// name-blind net layout, identical process signature and boxed-ness at every
// pid, identical dispatch tables (level and edge fanout are proc-id lists
// built in structural order, so they carry sensitivity information the body
// signatures deliberately omit), identical initial frame snapshot (which also
// covers initial-block effects and the constant pool), and identical port
// binding. Equal lanes compute bit-identical trajectories on the shared
// stimulus, so one may mirror the other outright.
func (sg *SoAGang) laneEqual(a, b int32) bool {
	x, y := &sg.lanes[a], &sg.lanes[b]
	if x.perCase != y.perCase || x.clock != y.clock ||
		len(x.ins) != len(y.ins) || len(x.outs) != len(y.outs) {
		return false
	}
	for i := range x.ins {
		if x.ins[i] != y.ins[i] {
			return false
		}
	}
	for i := range x.outs {
		if x.outs[i] != y.outs[i] {
			return false
		}
	}
	dx, dy := x.d, y.d
	if dx == dy {
		return true
	}
	if dx.gangLayoutSig != dy.gangLayoutSig ||
		len(dx.procArts) != len(dy.procArts) ||
		len(dx.initVal) != len(dy.initVal) ||
		len(dx.levelFan) != len(dy.levelFan) {
		return false
	}
	for k := range dx.procArts {
		if dx.procArts[k].gangSig != dy.procArts[k].gangSig ||
			dx.procArts[k].boxed != dy.procArts[k].boxed {
			return false
		}
	}
	for i := range dx.initVal {
		if dx.initVal[i] != dy.initVal[i] || dx.initXZ[i] != dy.initXZ[i] {
			return false
		}
	}
	for i := range dx.levelFan {
		lx, ly := dx.levelFan[i], dy.levelFan[i]
		if len(lx) != len(ly) {
			return false
		}
		for j := range lx {
			if lx[j] != ly[j] {
				return false
			}
		}
		ex, ey := dx.edgeFan[i], dy.edgeFan[i]
		if len(ex) != len(ey) {
			return false
		}
		for j := range ex {
			if ex[j] != ey[j] {
				return false
			}
		}
	}
	return true
}

// seal fixes the gang layout: collapses whole-design equivalence classes to
// their leaders, allocates the shared planes (one block per leader), and
// builds one aliasing engine per leader in its design's initial state.
func (sg *SoAGang) seal() {
	sg.sealed = true
	n := len(sg.lanes)
	if n == 0 {
		return
	}

	// Whole-design dedup. Each lane either leads a behavior class (and joins
	// the live execution set) or mirrors an earlier equal lane and never
	// executes: no plane block, no engine — its Hash/Err reads resolve
	// through the leader.
	sg.mirror = growI32(sg.mirror, n)
	sg.live = sg.live[:0]
	for i := range sg.lanes {
		sg.mirror[i] = -1
		if sg.dedup {
			for _, ld := range sg.live {
				if sg.laneEqual(int32(i), ld) {
					sg.mirror[i] = ld
					break
				}
			}
		}
		if sg.mirror[i] < 0 {
			sg.live = append(sg.live, int32(i))
		}
	}

	// Storage below reuses pooled capacity. Plane contents start as garbage,
	// which is safe: every leader's block is overwritten with its design's
	// full initVal/initXZ snapshot (state, constant pool, zeroed scratch)
	// before anything reads it.
	sg.stride = 0
	for _, li := range sg.live {
		sg.stride = max(sg.stride, sg.lanes[li].d.frameWords)
	}
	sg.val = growU64(sg.val, int(sg.stride)*len(sg.live))
	sg.xz = growU64(sg.xz, int(sg.stride)*len(sg.live))
	if cap(sg.engines) < n {
		ng := make([]*Engine, n)
		copy(ng, sg.engines)
		sg.engines = ng
	} else {
		sg.engines = sg.engines[:n]
	}
	if cap(sg.laneErr) < n {
		sg.laneErr = make([]error, n)
	} else {
		sg.laneErr = sg.laneErr[:n]
		clear(sg.laneErr)
	}

	for k, li := range sg.live {
		d := sg.lanes[li].d
		o := int32(k) * sg.stride
		fw := d.frameWords
		en := sg.engines[li]
		if en == nil {
			en = &Engine{}
			sg.engines[li] = en
		}
		en.d = d
		en.val = sg.val[o : o+fw : o+fw]
		en.xz = sg.xz[o : o+fw : o+fw]
		if np := len(d.procs); cap(en.queued) < np {
			en.queued = make([]bool, np)
		} else {
			en.queued = en.queued[:np]
		}
		en.reset()
	}
}

// BeginCase starts the next test case on every live lane: sequential lanes
// reset to the design's initial snapshot (the SoA equivalent of acquiring a
// pooled engine), fingerprints reset to the FNV offset basis, and clocked
// lanes drive their clock low — the exact preamble of a solo scheduled case.
func (sg *SoAGang) BeginCase() {
	if !sg.sealed {
		sg.seal()
	}
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		en := sg.engines[id]
		if ln.perCase {
			en.reset()
		}
		ln.hash = FNVOffset64
		if ln.clock >= 0 {
			en.SetInputUintH(ln.clock, 0)
		}
	}
}

// Retire withdraws a running lane between cases without an error: it leaves
// the live list, so no later drive or advance touches it, and its Err stays
// nil. Retiring a mirror retires its leader, and with it every lane
// mirroring that leader (they are one machine). Retiring an already retired
// or failed lane is a no-op.
func (sg *SoAGang) Retire(id int) {
	lid := int32(sg.leader(id))
	for i, x := range sg.live {
		if x == lid {
			sg.live = append(sg.live[:i], sg.live[i+1:]...)
			return
		}
	}
}

// Drive stores one decoded stimulus value into drive position pos of every
// live lane. The Value may be a view over shared schedule planes.
func (sg *SoAGang) Drive(pos int, v Value) {
	for _, id := range sg.live {
		sg.engines[id].SetInputH(sg.lanes[id].ins[pos], v)
	}
}

// Advance moves every live lane one step — a full clock cycle for clocked
// lanes, a settle otherwise — exactly as its solo engine would. A failing
// lane retires with its error; survivors are untouched.
func (sg *SoAGang) Advance() {
	n := 0
	for _, id := range sg.live {
		en := sg.engines[id]
		var err error
		if clk := sg.lanes[id].clock; clk >= 0 {
			err = en.TickH(clk)
		} else {
			err = en.Settle()
		}
		if err != nil {
			sg.laneErr[id] = err
			continue
		}
		sg.live[n] = id
		n++
	}
	sg.live = sg.live[:n]
}

// HashOutput folds output column col at the given rendering width into every
// live lane's case fingerprint, followed by the newline separator — the same
// byte stream the solo scheduled fingerprint run folds.
func (sg *SoAGang) HashOutput(col, width int) {
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		h := sg.engines[id].HashOutputH(ln.hash, ln.outs[col], width)
		ln.hash = (h ^ uint64('\n')) * FNVPrime64
	}
}

// Close retires the gang into the gang pool: design and error references
// are dropped, but planes, engines, and lane tables keep their capacity for
// the next gang. The gang must not be used after Close.
func (sg *SoAGang) Close() {
	if sg.closed {
		return
	}
	sg.closed = true
	for i := range sg.lanes {
		ln := &sg.lanes[i]
		ln.d, ln.ins, ln.outs = nil, nil, nil
	}
	sg.lanes = sg.lanes[:0]
	for _, en := range sg.engines {
		if en != nil {
			en.d = nil
		}
	}
	clear(sg.laneErr)
	sg.live = sg.live[:0]
	soaGangPool.Put(sg)
}
