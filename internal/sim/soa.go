// SoA gang execution: every lane's register file lives in ONE shared val
// plane and ONE shared xz plane, partitioned lane-major with a fixed stride,
// and processes that are structurally identical across lanes run as a single
// gang program (gangrf.go) walked once per activation with a per-lane inner
// loop. Mutated or gang-ineligible processes keep per-lane execution: each
// lane owns an ALIASING Engine whose frame is a subslice of the shared
// planes, so the solo closures, storeNet change records, NBA arena, fanout
// dispatch, reset, and HashOutputH all work unchanged — per-lane and gang
// execution interleave freely over the same storage.
//
// Sharing is peer-to-peer, not base-anchored: at seal, lanes group per pid
// into alpha-equivalence classes (same name-blind net layout, same
// gangProcSig — gangsig.go), and every class of two or more lanes gets one
// gang kernel lowered from a member design. Candidate pools cluster heavily
// under this relation — LLM candidates rename registers freely and repeat
// the same mutations — so one kernel walk typically drives most of the gang
// even when no two lanes are textually identical. Each distinct member
// program gets its own ext segment in the lane stride; gangRun.extBase is
// switched to the owning program's segment around each kernel run.
//
// Sharing has a degenerate-best case the gang exploits outright: lanes whose
// designs are alpha-equivalent END TO END — same name-blind layout, same
// process signature at every pid, same dispatch tables, same initial frame,
// same port binding — compute bit-identical trajectories on the shared
// stimulus, so only one leader lane per whole-design equivalence class
// executes and the rest mirror its fingerprints and errors by reference.
// Candidate pools make this common: register renames and repeated mutations
// produce textually distinct sources that are the same machine.
//
// Semantics are bit-identical to N independent solo engines: the merged
// scheduler replays each lane's exact solo Settle loop — same action
// priority (dispatch > run > NBA), same per-lane delta budget, same
// first-error retirement — it only lines the lanes up so that process
// activations with the same pid coalesce into per-class gang-program runs. A
// lane retires by dropping out of the live list and every mask; its plane
// block is simply never touched again (no block swapping), so survivors'
// storage and fingerprints are unaffected by construction.
package sim

import (
	"sync"
)

// SoAGang runs several candidate designs over shared struct-of-arrays
// planes. Not safe for concurrent use.
type SoAGang struct {
	run   gangRun
	lanes []soaLane
	live  []int32

	sealed bool
	closed bool

	// dedup collapses whole-design equivalence classes to one executing
	// leader per class (see laneEqual); mirror[id] names the leader a lane
	// mirrors, or -1 for lanes that run themselves. Kernel-level tests
	// disable dedup so identical lanes still exercise the gang kernels.
	dedup  bool
	mirror []int32

	// Per-pid lane equivalence classes (built at seal). classes[c] holds the
	// kernel and ext segment of class c; classBuf[c] is the class's reusable
	// activation mask, capacity fixed at its member count (sliced out of
	// bufArena). mergedLanes lists the leaders that share at least one class
	// and so run under the merged scheduler; the rest settle solo.
	classes     []soaClass
	classBuf    [][]int32
	bufArena    []int32
	touched     []int32 // classes gathered in the current activation
	mergedLanes []int32

	// Seal-time grouping scratch, pooled across gangs: the key table is
	// scanned linearly (entry count is leaders × procs, always small), and
	// the per-lane class arrays are sliced out of classArena.
	keys       []soaClassKey
	kcount     []int32
	kfirst     []int32
	remap      []int32
	classArena []int32
	progs      []*gangProg
	progSegs   []int32

	// Merged-scheduler scratch, sized at seal.
	iters   []int32   // per-lane settle action counters
	batches [][]int32 // per-lane active batch being drained
	cursors []int
	pbuf    []int32 // participants of the current runActiveMerged
	mSolo   []int32
}

// soaClass is one gang-executable equivalence class: lanes whose process at
// one pid is structurally identical modulo renaming. gp points into the
// owning member design's cached gang program; extBase is that program's ext
// segment within every lane block.
type soaClass struct {
	gp      *gproc
	extBase int32
}

type soaLane struct {
	d        *Design
	perCase  bool // sequential lifecycle: reset the lane engine every case
	soloOnly bool // no shared class at any pid: settle with the solo loop
	clock    int
	ins      []int
	outs     []int
	hash     uint64
	class    []int32 // per pid: class id, or -1 for per-lane execution
}

// soaGangPool recycles closed gangs: planes, engines, class tables, and
// scheduler scratch keep their capacity across rank batches, so after warmup
// sealing a gang allocates (almost) nothing — the SoA analogue of the
// per-design engine pool.
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

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
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
// Lanes must all be added before the first BeginCase.
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

// Err returns the error that retired the lane, or nil while it runs. A
// mirroring lane reports its leader's error: the two designs are the same
// machine, so the leader's failure is exactly the failure the mirror would
// have produced.
func (sg *SoAGang) Err(id int) error {
	if sg.mirror != nil && sg.mirror[id] >= 0 {
		id = int(sg.mirror[id])
	}
	if sg.run.laneErr == nil {
		return nil
	}
	return sg.run.laneErr[id]
}

// Hash returns the lane's running fingerprint for the current case
// (mirroring lanes read their leader's).
func (sg *SoAGang) Hash(id int) uint64 {
	if sg.mirror != nil && sg.mirror[id] >= 0 {
		id = int(sg.mirror[id])
	}
	return sg.lanes[id].hash
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

// soaClassKey groups lanes that may share one gang kernel at one pid: the
// name-blind layout signature guarantees identical net indices and frame
// offsets, the process signature guarantees an identical computation.
type soaClassKey struct {
	pid     int32
	layout  uint64
	procSig uint64
}

// seal fixes the gang layout: groups lanes into per-pid equivalence classes,
// lowers one gang kernel per multi-lane class, allocates the shared planes
// (one ext segment per distinct member program), builds one aliasing engine
// per lane, and copies initial state and gang constants.
func (sg *SoAGang) seal() {
	sg.sealed = true
	n := len(sg.lanes)
	if n == 0 {
		return
	}

	// Pass 0: whole-design dedup. Each lane either leads a behavior class
	// (and joins the live execution set) or mirrors an earlier equal lane and
	// never executes: no plane block initialization, no engine, no class
	// membership — its Hash/Err reads resolve through the leader.
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

	maxFrame := int32(0)
	totalProcs := 0
	for _, li := range sg.live {
		d := sg.lanes[li].d
		if d.frameWords > maxFrame {
			maxFrame = d.frameWords
		}
		totalProcs += len(d.procs)
	}

	// Pass 1: group (pid, layout, procSig) over leader lanes in
	// deterministic order. Grouping scratch is pooled: the key table is
	// scanned linearly (entries = leaders × procs, always small) and the
	// per-lane class arrays slice classArena.
	sg.keys = sg.keys[:0]
	sg.kcount = sg.kcount[:0]
	sg.kfirst = sg.kfirst[:0]
	sg.classArena = growI32(sg.classArena, totalProcs)
	arena := sg.classArena
	for _, li := range sg.live {
		ln := &sg.lanes[li]
		np := len(ln.d.procs)
		ln.class, arena = arena[:np:np], arena[np:]
		for k := range ln.d.procs {
			key := soaClassKey{pid: int32(k), layout: ln.d.gangLayoutSig,
				procSig: ln.d.procArts[k].gangSig}
			c := int32(-1)
			for j := range sg.keys {
				if sg.keys[j] == key {
					c = int32(j)
					break
				}
			}
			if c < 0 {
				c = int32(len(sg.keys))
				sg.keys = append(sg.keys, key)
				sg.kcount = append(sg.kcount, 0)
				sg.kfirst = append(sg.kfirst, li)
			}
			sg.kcount[c]++
			ln.class[k] = c
		}
	}

	// Pass 2: keep classes with two or more lanes (a singleton gains nothing
	// over its solo closure) and a lowerable kernel. The kernel comes from
	// the first member's cached gang program; any member works — class
	// signatures pin the lowering inputs — and reusing first-seen designs
	// keeps the distinct-program count (and so the stride) small. Programs
	// get consecutive ext segments after the frame region.
	sg.classes = sg.classes[:0]
	sg.progs = sg.progs[:0]
	sg.progSegs = sg.progSegs[:0]
	sg.remap = growI32(sg.remap, len(sg.keys))
	extCursor := maxFrame
	maxWids, maxMasks := int32(0), int32(0)
	bufTotal := int32(0)
	for c := range sg.keys {
		sg.remap[c] = -1
		if sg.kcount[c] < 2 {
			continue
		}
		owner := sg.lanes[sg.kfirst[c]].d
		prog := owner.gangProgram()
		gp := &prog.procs[sg.keys[c].pid]
		if gp.run == nil {
			continue
		}
		seg := int32(-1)
		for j := range sg.progs {
			if sg.progs[j] == prog {
				seg = sg.progSegs[j]
				break
			}
		}
		if seg < 0 {
			seg = extCursor
			sg.progs = append(sg.progs, prog)
			sg.progSegs = append(sg.progSegs, seg)
			extCursor += prog.extWords
			if prog.nwids > maxWids {
				maxWids = prog.nwids
			}
			if prog.maskSlots > maxMasks {
				maxMasks = prog.maskSlots
			}
		}
		sg.remap[c] = int32(len(sg.classes))
		sg.classes = append(sg.classes, soaClass{gp: gp, extBase: seg})
		bufTotal += sg.kcount[c]
	}
	sg.bufArena = growI32(sg.bufArena, int(bufTotal))
	if cap(sg.classBuf) < len(sg.classes) {
		sg.classBuf = make([][]int32, len(sg.classes))
	} else {
		sg.classBuf = sg.classBuf[:len(sg.classes)]
	}
	bufOff := int32(0)
	for c := range sg.keys {
		if r := sg.remap[c]; r >= 0 {
			cnt := sg.kcount[c]
			sg.classBuf[r] = sg.bufArena[bufOff : bufOff : bufOff+cnt]
			bufOff += cnt
		}
	}
	sg.mergedLanes = sg.mergedLanes[:0]
	for _, li := range sg.live {
		ln := &sg.lanes[li]
		ln.soloOnly = true
		for k := range ln.class {
			ln.class[k] = sg.remap[ln.class[k]]
			if ln.class[k] >= 0 {
				ln.soloOnly = false
			}
		}
		if !ln.soloOnly {
			sg.mergedLanes = append(sg.mergedLanes, li)
		}
	}

	// Storage below reuses pooled capacity. Plane contents start as garbage,
	// which is safe for the same reason gang scratch needs no per-case
	// zeroing: every lane's frame region is overwritten with the full
	// initVal/initXZ snapshot (state, constant pool, zeroed scratch), ext
	// constants are patched explicitly, and ext scratch is written at the
	// produced width before any kernel reads it.
	g := &sg.run
	g.lanes = int32(n)
	g.extBase = maxFrame
	g.stride = extCursor
	g.val = growU64(g.val, int(g.stride)*n)
	g.xz = growU64(g.xz, int(g.stride)*n)
	if cap(g.engines) < n {
		ng := make([]*Engine, n)
		copy(ng, g.engines)
		g.engines = ng
	} else {
		g.engines = g.engines[:n]
	}
	g.wids = growI32(g.wids, int(maxWids)*n)
	if cap(g.arena) < (int(maxMasks)+4)*n {
		g.arena = make([]int32, 0, (int(maxMasks)+4)*n)
	} else {
		g.arena = g.arena[:0]
	}
	if cap(g.laneErr) < n {
		g.laneErr = make([]error, n)
	} else {
		g.laneErr = g.laneErr[:n]
		for i := range g.laneErr {
			g.laneErr[i] = nil
		}
	}
	g.anyFailed = false

	for _, li := range sg.live {
		i := int(li)
		ln := &sg.lanes[i]
		o := int32(i) * g.stride
		fw := ln.d.frameWords
		en := g.engines[i]
		if en == nil {
			en = &Engine{}
			g.engines[i] = en
		}
		en.d = ln.d
		en.val = g.val[o : o+fw : o+fw]
		en.xz = g.xz[o : o+fw : o+fw]
		np := len(ln.d.procs)
		if cap(en.queued) < np {
			en.queued = make([]bool, np)
		} else {
			en.queued = en.queued[:np]
			for j := range en.queued {
				en.queued[j] = false
			}
		}
		en.active = en.active[:0]
		en.changed = en.changed[:0]
		en.nba = en.nba[:0]
		en.nbaVal = en.nbaVal[:0]
		en.nbaXZ = en.nbaXZ[:0]
		en.wstack = en.wstack[:0]
		en.targets = en.targets[:0]
		en.current = -1
		copy(en.val, ln.d.initVal)
		copy(en.xz, ln.d.initXZ)

		// Gang constants live in each program's ext segment of every lane
		// and are never overwritten (gang scratch needs no per-case zeroing:
		// kernels read exactly the produced width, so stale high words are
		// never seen — the same argument that lets solo engines skip scratch
		// resets).
		for j := range sg.progs {
			eo := o + sg.progSegs[j]
			for _, cp := range sg.progs[j].consts {
				copy(g.val[eo+cp.off:eo+cp.off+int32(len(cp.v.val))], cp.v.val)
				copy(g.xz[eo+cp.off:eo+cp.off+int32(len(cp.v.xz))], cp.v.xz)
			}
		}
	}

	sg.touched = sg.touched[:0]
	sg.iters = growI32(sg.iters, n)
	if cap(sg.batches) < n {
		sg.batches = make([][]int32, n)
	} else {
		sg.batches = sg.batches[:n]
		for i := range sg.batches {
			sg.batches[i] = nil
		}
	}
	sg.cursors = growInt(sg.cursors, n)
	sg.pbuf = sg.pbuf[:0]
	sg.mSolo = sg.mSolo[:0]
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
		en := sg.run.engines[id]
		if ln.perCase {
			en.reset()
		}
		ln.hash = FNVOffset64
		if ln.clock >= 0 {
			en.SetInputUintH(ln.clock, 0)
		}
	}
}

// EndCase exists for surface parity with Gang (which releases per-case
// engines here); SoA lane engines persist, resetting at the next BeginCase.
func (sg *SoAGang) EndCase() {}

// Retire withdraws a running lane between cases without an error: it leaves
// the live list and the merged scheduler's lane set, so no later drive,
// settle or class mask touches it, and its Err stays nil. Retiring a mirror
// retires its leader, and with it every lane mirroring that leader (they are
// one machine). Retiring an already retired or failed lane is a no-op.
func (sg *SoAGang) Retire(id int) {
	if sg.mirror != nil && sg.mirror[id] >= 0 {
		id = int(sg.mirror[id])
	}
	sg.live = dropLane(sg.live, int32(id))
	sg.mergedLanes = dropLane(sg.mergedLanes, int32(id))
}

// dropLane removes id from an ordered lane list in place.
func dropLane(ids []int32, id int32) []int32 {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// Drive stores one decoded stimulus value into drive position pos of every
// live lane. The Value may be a view over shared schedule planes.
func (sg *SoAGang) Drive(pos int, v Value) {
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		sg.run.engines[id].SetInputH(ln.ins[pos], v)
	}
}

// Advance moves every live lane one step — a full clock cycle for clocked
// lanes, a settle otherwise — in merged lockstep. Failing lanes retire with
// their error and drop out of every mask; survivors are untouched.
func (sg *SoAGang) Advance() {
	clocked := false
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		if ln.clock >= 0 {
			clocked = true
			sg.run.engines[id].SetInputUintH(ln.clock, 1)
		}
	}
	sg.settleAll()
	if clocked {
		for _, id := range sg.live {
			ln := &sg.lanes[id]
			if ln.clock >= 0 && sg.run.laneErr[id] == nil {
				sg.run.engines[id].SetInputUintH(ln.clock, 0)
			}
		}
		sg.settleAll()
	}
	n := 0
	for _, id := range sg.live {
		if sg.run.laneErr[id] == nil {
			sg.live[n] = id
			n++
		}
	}
	sg.live = sg.live[:n]
	// Every failed lane is now out of the live set (and so out of every
	// future mask); drop the effect-site guards back to the fast path.
	sg.run.anyFailed = false
}

// settleAll replays each live lane's solo Settle loop in merged lockstep:
// per pass, every lane takes at most one action in solo priority order
// (dispatch changes > run active batch > apply NBAs), with per-lane action
// counters enforcing exactly the solo delta budget (a lane whose budget
// trips fails with ErrNoConverge precisely when its solo run would). Active
// batches across lanes are drained pid-merged so shared processes coalesce
// into per-class gang-program runs.
func (sg *SoAGang) settleAll() {
	g := &sg.run
	// Lanes that share no class at any pid gain nothing from merging: run
	// the reference solo loop directly (it is the semantics the merged loop
	// replicates). Lanes are data-independent, so ordering solo settles
	// before the merged set is unobservable.
	for _, id := range sg.live {
		if sg.lanes[id].soloOnly && g.laneErr[id] == nil {
			if err := g.engines[id].Settle(); err != nil {
				g.failLane(id, err)
			}
		}
	}
	if len(sg.mergedLanes) == 0 {
		return
	}
	for _, id := range sg.mergedLanes {
		sg.iters[id] = 0
	}
	for {
		work := false
		for _, id := range sg.mergedLanes {
			if g.laneErr[id] != nil {
				continue
			}
			en := g.engines[id]
			if len(en.changed) > 0 {
				if sg.bumpIter(id) {
					continue
				}
				en.dispatchChanges()
				work = true
			}
		}
		sg.pbuf = sg.pbuf[:0]
		for _, id := range sg.mergedLanes {
			if g.laneErr[id] != nil {
				continue
			}
			en := g.engines[id]
			if len(en.changed) == 0 && len(en.active) > 0 {
				if sg.bumpIter(id) {
					continue
				}
				sg.pbuf = append(sg.pbuf, id)
			}
		}
		if len(sg.pbuf) == 1 {
			// One lane with runnable work cannot coalesce with anyone
			// (participants are fixed for the drain): the solo batch drain
			// is the same semantics without the merge bookkeeping.
			id := sg.pbuf[0]
			if err := g.engines[id].runActive(); err != nil {
				g.failLane(id, err)
			}
			work = true
		} else if len(sg.pbuf) > 0 {
			sg.runActiveMerged(sg.pbuf)
			work = true
		}
		for _, id := range sg.mergedLanes {
			if g.laneErr[id] != nil {
				continue
			}
			en := g.engines[id]
			if len(en.changed) == 0 && len(en.active) == 0 && len(en.nba) > 0 {
				if sg.bumpIter(id) {
					continue
				}
				en.applyNBA()
				work = true
			}
		}
		if !work {
			// Converged. A lane that spent its whole budget fails even so:
			// the solo loop checks the budget before discovering idleness.
			for _, id := range sg.mergedLanes {
				if g.laneErr[id] == nil && sg.iters[id] > maxDeltas {
					g.failLane(id, ErrNoConverge)
				}
			}
			return
		}
	}
}

// bumpIter charges one scheduler action to the lane's delta budget,
// reporting true (and failing the lane) when the budget is already spent —
// the exact check solo Settle performs at the top of each iteration.
func (sg *SoAGang) bumpIter(id int32) bool {
	if sg.iters[id] > maxDeltas {
		sg.run.failLane(id, ErrNoConverge)
		return true
	}
	sg.iters[id]++
	return false
}

// runActiveMerged drains the active batches of all participants in merged
// order: repeatedly take the next pid of the first participant with work,
// gather every participant whose next pid matches, bucket them by
// equivalence class, run each class as one gang-program activation and the
// rest per lane. Each lane consumes its own batch strictly in order, so
// per-lane semantics are exactly runActive; pid merging only lines identical
// activations up across lanes (lanes are data-independent, so cross-lane
// ordering is unobservable).
func (sg *SoAGang) runActiveMerged(participants []int32) {
	g := &sg.run
	for _, id := range participants {
		en := g.engines[id]
		sg.batches[id] = en.active
		en.active = en.activeSpare[:0]
		sg.cursors[id] = 0
	}
	for {
		pid := int32(-1)
		for _, id := range participants {
			if g.laneErr[id] != nil {
				continue
			}
			if sg.cursors[id] < len(sg.batches[id]) {
				pid = sg.batches[id][sg.cursors[id]]
				break
			}
		}
		if pid < 0 {
			break
		}
		sg.touched = sg.touched[:0]
		sg.mSolo = sg.mSolo[:0]
		for _, id := range participants {
			if g.laneErr[id] != nil || sg.cursors[id] >= len(sg.batches[id]) ||
				sg.batches[id][sg.cursors[id]] != pid {
				continue
			}
			sg.cursors[id]++
			g.engines[id].queued[pid] = false
			if c := sg.lanes[id].class[pid]; c >= 0 {
				if len(sg.classBuf[c]) == 0 {
					sg.touched = append(sg.touched, c)
				}
				sg.classBuf[c] = append(sg.classBuf[c], id)
			} else {
				sg.mSolo = append(sg.mSolo, id)
			}
		}
		for _, c := range sg.touched {
			m := sg.classBuf[c]
			cl := &sg.classes[c]
			// A class gathered a single activated lane this round: its solo
			// closure is cheaper than a one-lane kernel walk.
			if len(m) == 1 {
				sg.classBuf[c] = m[:0]
				if err := g.engines[m[0]].runProcess(pid); err != nil {
					g.failLane(m[0], err)
				}
				continue
			}
			g.extBase = cl.extBase
			if !cl.gp.cont {
				for _, l := range m {
					g.engines[l].current = pid
				}
			}
			cl.gp.run(g, m)
			if !cl.gp.cont {
				for _, l := range m {
					g.engines[l].current = -1
				}
			}
			sg.classBuf[c] = m[:0]
		}
		for _, id := range sg.mSolo {
			if err := g.engines[id].runProcess(pid); err != nil {
				// Abort the lane mid-batch like solo runActive: the batch
				// tail is abandoned (its queued flags are cleared by the
				// next reset, exactly as on a solo engine).
				g.failLane(id, err)
			}
		}
	}
	for _, id := range participants {
		g.engines[id].activeSpare = sg.batches[id][:0]
		sg.batches[id] = nil
	}
}

// HashOutput folds output column col at the given rendering width into every
// live lane's case fingerprint, followed by the newline separator — the same
// byte stream the solo scheduled fingerprint run folds.
func (sg *SoAGang) HashOutput(col, width int) {
	for _, id := range sg.live {
		ln := &sg.lanes[id]
		h := sg.run.engines[id].HashOutputH(ln.hash, ln.outs[col], width)
		ln.hash = (h ^ uint64('\n')) * FNVPrime64
	}
}

// Close retires the gang into the gang pool: design and error references
// are dropped, but planes, engines, class tables, and scheduler scratch keep
// their capacity for the next gang. The gang must not be used after Close.
func (sg *SoAGang) Close() {
	if sg.closed {
		return
	}
	sg.closed = true
	for i := range sg.lanes {
		ln := &sg.lanes[i]
		ln.d, ln.ins, ln.outs, ln.class = nil, nil, nil, nil
	}
	sg.lanes = sg.lanes[:0]
	for _, en := range sg.run.engines {
		if en != nil {
			en.d = nil
		}
	}
	for i := range sg.run.laneErr {
		sg.run.laneErr[i] = nil
	}
	for i := range sg.classes {
		sg.classes[i] = soaClass{}
	}
	sg.classes = sg.classes[:0]
	for i := range sg.progs {
		sg.progs[i] = nil
	}
	sg.progs = sg.progs[:0]
	for i := range sg.kfirst {
		sg.kfirst[i] = 0
	}
	sg.live = sg.live[:0]
	soaGangPool.Put(sg)
}
