package sim

import (
	"fmt"
	"strconv"

	"repro/internal/verilog/ast"
)

// Instance is the common stimulus interface of both simulation backends: the
// AST-walking Simulator and the compiled Engine.
//
// The name-keyed methods (SetInput, Output, ...) resolve the port on every
// call; the handle-bound variants split resolution from use, so a testbench
// schedule resolves each name exactly once per (design, stimulus) pair and
// then drives and observes through integer handles. Handles are stable
// across instances of the same design on the same backend (the compiled
// engine shares them through its Design; the interpreter's elaboration is
// deterministic), so a schedule bound on one instance is valid for every
// per-case instance of the run. The handle-taking methods require a handle
// obtained from InputHandle/OutputHandle on the same design and do not
// re-validate it.
type Instance interface {
	Inputs() []PortInfo
	Outputs() []PortInfo
	SetInput(name string, v Value) error
	SetInputUint(name string, x uint64) error
	Output(name string) (Value, error)
	Settle() error
	Tick(clock string) error

	// InputHandle resolves an input port name (ErrNotInput for non-inputs,
	// ErrUnknownNet where the backend distinguishes unknown names).
	InputHandle(name string) (int, error)
	// OutputHandle resolves a top-level net name (ErrUnknownNet if absent).
	OutputHandle(name string) (int, error)
	// SetInputH drives an input through its handle. The Value's planes are
	// only read during the call, so callers may pass reused buffers.
	SetInputH(h int, v Value)
	// SetInputUintH drives an input with a known integer value.
	SetInputUintH(h int, x uint64)
	// TickH performs one full clock cycle on the input behind h.
	TickH(h int) error
	// HashOutputH folds the output's printed rendering at the given width
	// into a running FNV-1a hash (same bytes as AppendOutputH).
	HashOutputH(hash uint64, h int, width int) uint64
	// AppendOutputH appends the output's binary rendering at the given
	// width, identical to Output(name).Resize(width).String().
	AppendOutputH(dst []byte, h int, width int) []byte
}

var (
	_ Instance = (*Simulator)(nil)
	_ Instance = (*Engine)(nil)
)

// Engine executes a compiled Design. All mutable state is a pair of flat
// val/xz word planes (net state, constant pool, expression scratch) plus the
// scheduler queues; steady-state Settle/Tick touch only preallocated storage
// and perform zero heap allocations. Many Engines can run one Design
// concurrently. An individual Engine is not safe for concurrent use.
type Engine struct {
	d       *Design
	val, xz []uint64
	queued  []bool
	active  []int32
	changed []echange
	nba     []enbaWrite
	current int32 // behavioral process being run, -1 outside

	// nbaVal/nbaXZ arena the pending values of non-blocking assignments
	// (the RHS scratch slot is long overwritten by the time NBAs apply).
	nbaVal, nbaXZ []uint64

	// wstack holds produced widths of in-flight concat parts.
	wstack []int32

	// targets buffers resolved dynamic lvalue targets so an assignment
	// resolves every target before storing any (assignments never nest, so
	// one buffer suffices).
	targets []rtarget

	// Spare buffers double-buffer the scheduler queues so steady-state
	// settling allocates nothing.
	activeSpare  []int32
	changedSpare []echange
	nbaSpare     []enbaWrite
}

// echange records one net transition for fanout dispatch. Only the 4-state
// code of bit 0 before/after is kept: edge detection looks at nothing else,
// and level fanout needs no value at all.
type echange struct {
	net    int32
	byProc int32
	oldB   uint8 // 0:'0' 1:'1' 2:'x' 3:'z'
	newB   uint8
}

type enbaWrite struct {
	net     int32
	lo      int
	width   int
	dataOff int // word offset into the NBA arena
}

// NewEngine returns a fresh instance of the design, already in its
// post-initial settled state (the snapshot Compile captured), so
// instantiation costs one frame copy instead of a re-elaboration.
func (d *Design) NewEngine() *Engine {
	en := &Engine{
		d:       d,
		val:     make([]uint64, d.frameWords),
		xz:      make([]uint64, d.frameWords),
		queued:  make([]bool, len(d.procs)),
		current: -1,
	}
	copy(en.val, d.initVal)
	copy(en.xz, d.initXZ)
	return en
}

// AcquireEngine returns an engine reset to the design's initial state,
// recycling a previously released one when possible. The reset is two plane
// memcpys, so acquire/release cycles through testbench cases cost no
// allocation in steady state.
func (d *Design) AcquireEngine() *Engine {
	if v := d.pool.Get(); v != nil {
		en := v.(*Engine)
		en.reset()
		return en
	}
	return d.NewEngine()
}

// ReleaseEngine returns an engine to the design's pool. The engine must not
// be used after release. Engines belonging to other designs are ignored.
func (d *Design) ReleaseEngine(en *Engine) {
	if en == nil || en.d != d {
		return
	}
	d.pool.Put(en)
}

// reset restores the post-initial snapshot and empties the scheduler, so a
// recycled engine is indistinguishable from a fresh one (even after an
// errored run left queues half-full). The queued flags are cleared
// wholesale: a mid-batch process error leaves the unprocessed tail of the
// batch flagged but parked outside en.active, so clearing only en.active
// would permanently suppress those processes on the recycled engine.
func (en *Engine) reset() {
	copy(en.val, en.d.initVal)
	copy(en.xz, en.d.initXZ)
	for i := range en.queued {
		en.queued[i] = false
	}
	en.active = en.active[:0]
	en.changed = en.changed[:0]
	en.nba = en.nba[:0]
	en.nbaVal = en.nbaVal[:0]
	en.nbaXZ = en.nbaXZ[:0]
	en.wstack = en.wstack[:0]
	en.current = -1
}

// Design returns the compiled design this engine executes.
func (en *Engine) Design() *Design { return en.d }

// Inputs returns the top module's input ports in declaration order.
func (en *Engine) Inputs() []PortInfo { return append([]PortInfo(nil), en.d.inputs...) }

// Outputs returns the top module's output ports in declaration order.
func (en *Engine) Outputs() []PortInfo { return append([]PortInfo(nil), en.d.outputs...) }

// netValue boxes the current value of net idx (API boundary only — the hot
// path never materializes Values).
func (en *Engine) netValue(idx int32) Value {
	n := &en.d.nets[idx]
	return NewFromPlanes(n.width, en.val[n.off:n.off+n.nw], en.xz[n.off:n.off+n.nw])
}

// SetInput drives a top-level input port. The new value takes effect at the
// next Settle call.
func (en *Engine) SetInput(name string, v Value) error {
	idx, ok := en.d.inputIdx[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotInput, name)
	}
	// Writing exactly the net's width from v's planes is Resize semantics:
	// guarded reads zero-extend, the width bound truncates.
	en.storeNet(idx, 0, v.val, v.xz, 0, en.d.nets[idx].width)
	return nil
}

// SetInputUint drives an input port with a known integer value. Non-input
// nets are rejected exactly like the interpreter: unknown names report
// ErrUnknownNet, known non-input nets ErrNotInput.
func (en *Engine) SetInputUint(name string, x uint64) error {
	idx, ok := en.d.inputIdx[name]
	if !ok {
		if _, isNet := en.d.topIdx[name]; !isNet {
			return fmt.Errorf("%w: %q", ErrUnknownNet, name)
		}
		return fmt.Errorf("%w: %q", ErrNotInput, name)
	}
	sv := [1]uint64{x}
	en.storeNet(idx, 0, sv[:], nil, 0, en.d.nets[idx].width)
	return nil
}

// Output reads any top-level net (usually an output port).
func (en *Engine) Output(name string) (Value, error) {
	idx, ok := en.d.topIdx[name]
	if !ok {
		return Value{}, fmt.Errorf("%w: %q", ErrUnknownNet, name)
	}
	return en.netValue(idx), nil
}

// AppendOutput appends the binary rendering of a top-level net at the given
// width (identical to Output(name).Resize(width).String()) to dst, without
// boxing a Value. Trace capture is the hottest consumer of outputs; this
// keeps it at one allocation per recorded string.
func (en *Engine) AppendOutput(dst []byte, name string, width int) ([]byte, error) {
	idx, ok := en.d.topIdx[name]
	if !ok {
		return dst, fmt.Errorf("%w: %q", ErrUnknownNet, name)
	}
	return en.AppendOutputH(dst, int(idx), width), nil
}

// InputHandle resolves an input port name to a design-stable handle
// (delegates to the shared Design, so every pooled Engine agrees).
func (en *Engine) InputHandle(name string) (int, error) { return en.d.InputHandle(name) }

// OutputHandle resolves a top-level net name to a design-stable handle.
func (en *Engine) OutputHandle(name string) (int, error) { return en.d.OutputHandle(name) }

// SetInputH drives an input port through its handle: SetInput without the
// name lookup. The planes of v are read only during the call.
func (en *Engine) SetInputH(h int, v Value) {
	en.storeNet(int32(h), 0, v.val, v.xz, 0, en.d.nets[h].width)
}

// SetInputUintH drives an input port with a known integer value through its
// handle.
func (en *Engine) SetInputUintH(h int, x uint64) {
	sv := [1]uint64{x}
	en.storeNet(int32(h), 0, sv[:], nil, 0, en.d.nets[h].width)
}

// AppendOutputH is AppendOutput through a handle: one bounds check instead
// of a map lookup per recorded output.
func (en *Engine) AppendOutputH(dst []byte, h int, width int) []byte {
	cn := &en.d.nets[h]
	sv := en.val[cn.off : cn.off+cn.nw]
	sx := en.xz[cn.off : cn.off+cn.nw]
	dst = strconv.AppendInt(dst, int64(width), 10)
	dst = append(dst, '\'', 'b')
	for i := width - 1; i >= 0; i-- {
		switch kbit(sv, sx, cn.width, i) {
		case 0:
			dst = append(dst, '0')
		case 1:
			dst = append(dst, '1')
		case 2:
			dst = append(dst, 'x')
		default:
			dst = append(dst, 'z')
		}
	}
	return dst
}

// Settle runs delta cycles until no activity remains, or fails with
// ErrNoConverge.
func (en *Engine) Settle() error {
	for iter := 0; ; iter++ {
		if iter > maxDeltas {
			return ErrNoConverge
		}
		if len(en.changed) > 0 {
			en.dispatchChanges()
			continue
		}
		if len(en.active) > 0 {
			if err := en.runActive(); err != nil {
				return err
			}
			continue
		}
		if len(en.nba) > 0 {
			en.applyNBA()
			continue
		}
		return nil
	}
}

// Tick performs one full clock cycle on the named clock input.
func (en *Engine) Tick(clock string) error {
	if err := en.SetInputUint(clock, 1); err != nil {
		return err
	}
	if err := en.Settle(); err != nil {
		return err
	}
	if err := en.SetInputUint(clock, 0); err != nil {
		return err
	}
	return en.Settle()
}

// TickH performs one full clock cycle through the clock's handle, saving the
// two name lookups Tick pays per cycle.
func (en *Engine) TickH(h int) error {
	en.SetInputUintH(h, 1)
	if err := en.Settle(); err != nil {
		return err
	}
	en.SetInputUintH(h, 0)
	return en.Settle()
}

// --- Scheduler internals -----------------------------------------------------

func (en *Engine) enqueue(pid int32) {
	if en.queued[pid] {
		return
	}
	en.queued[pid] = true
	en.active = append(en.active, pid)
}

// storeNet writes n bits read from (sv, sx) starting at bit spos into net
// idx at bit offset lo, in place. Bits landing outside the net are dropped
// (WriteBits semantics) and an unchanged store is a no-op. Changes are
// recorded for fanout dispatch, mirroring Simulator.writeNet; nets with no
// fanout at all (e.g. pure output ports) skip the record, since dispatching
// them is a no-op by construction.
func (en *Engine) storeNet(idx int32, lo int, sv, sx []uint64, spos, n int) {
	cn := &en.d.nets[idx]
	// Fast path: a whole-net store of a net that fits one word and an
	// aligned source — the shape of every input drive and most assignments.
	// Skips the guarded multi-word blit loop below.
	if lo == 0 && spos == 0 && n == cn.width && n <= 64 && len(sv) > 0 {
		m := maskN(n)
		nv := sv[0] & m
		var nx uint64
		if len(sx) > 0 {
			nx = sx[0] & m
		}
		dv := &en.val[cn.off]
		dx := &en.xz[cn.off]
		if nv == *dv && nx == *dx {
			return
		}
		hasFan := len(en.d.levelFan[idx]) > 0 || len(en.d.edgeFan[idx]) > 0
		if !hasFan {
			*dv, *dx = nv, nx
			return
		}
		oldB := uint8(*dv&1) | uint8(*dx&1)<<1
		*dv, *dx = nv, nx
		newB := uint8(nv&1) | uint8(nx&1)<<1
		en.changed = append(en.changed, echange{net: idx, byProc: en.current, oldB: oldB, newB: newB})
		return
	}
	cnt := n
	s := spos
	dpos := lo
	if dpos < 0 {
		s -= dpos
		cnt += dpos
		dpos = 0
	}
	if max := cn.width - dpos; cnt > max {
		cnt = max
	}
	if cnt <= 0 {
		return
	}
	dv := en.val[cn.off : cn.off+cn.nw]
	dx := en.xz[cn.off : cn.off+cn.nw]
	hasFan := len(en.d.levelFan[idx]) > 0 || len(en.d.edgeFan[idx]) > 0
	var oldB uint8
	if hasFan {
		oldB = uint8(dv[0]&1) | uint8(dx[0]&1)<<1
	}
	changed := false
	for cnt > 0 {
		wi, b := dpos/64, dpos%64
		take := 64 - b
		if take > cnt {
			take = cnt
		}
		m := maskN(take) << uint(b)
		nv := dv[wi]&^m | kread64(sv, s)<<uint(b)&m
		nx := dx[wi]&^m | kread64(sx, s)<<uint(b)&m
		if nv != dv[wi] || nx != dx[wi] {
			changed = true
			dv[wi] = nv
			dx[wi] = nx
		}
		dpos += take
		s += take
		cnt -= take
	}
	if !changed || !hasFan {
		return
	}
	newB := uint8(dv[0]&1) | uint8(dx[0]&1)<<1
	en.changed = append(en.changed, echange{net: idx, byProc: en.current, oldB: oldB, newB: newB})
}

// queueNBA copies n bits of the RHS (starting at spos) into the NBA arena
// and schedules the write. The arena is reused across deltas, so after
// warmup this allocates nothing.
func (en *Engine) queueNBA(idx int32, lo int, sv, sx []uint64, spos, n int) {
	nw := words(n)
	off := len(en.nbaVal)
	need := off + nw
	if need > cap(en.nbaVal) {
		grown := make([]uint64, need, 2*need)
		copy(grown, en.nbaVal)
		en.nbaVal = grown
		grownX := make([]uint64, need, 2*need)
		copy(grownX, en.nbaXZ)
		en.nbaXZ = grownX
	} else {
		en.nbaVal = en.nbaVal[:need]
		en.nbaXZ = en.nbaXZ[:need]
	}
	for i := off; i < need; i++ {
		en.nbaVal[i], en.nbaXZ[i] = 0, 0
	}
	kblit(en.nbaVal[off:need], en.nbaXZ[off:need], 0, sv, sx, spos, n)
	en.nba = append(en.nba, enbaWrite{net: idx, lo: lo, width: n, dataOff: off})
}

// edgeFiredCode implements LRM edge semantics on the LSB codes: posedge
// fires on transitions toward 1 (0→1, 0→x/z, x/z→1), negedge mirrors toward
// 0. Codes: 0:'0' 1:'1' 2:'x' 3:'z' (the code equivalent of edgeFired in
// eval.go).
func edgeFiredCode(edge ast.EdgeKind, oldB, newB uint8) bool {
	if oldB == newB {
		return false
	}
	switch edge {
	case ast.EdgePos:
		return (oldB == 0 && newB != 0) || (oldB != 1 && newB == 1)
	case ast.EdgeNeg:
		return (oldB == 1 && newB != 1) || (oldB != 0 && newB == 0)
	default:
		return false
	}
}

func (en *Engine) dispatchChanges() {
	batch := en.changed
	en.changed = en.changedSpare[:0]
	for _, ch := range batch {
		for _, pid := range en.d.levelFan[ch.net] {
			if pid == ch.byProc {
				continue // processes miss events raised during their own run
			}
			en.enqueue(pid)
		}
		for _, sub := range en.d.edgeFan[ch.net] {
			if sub.proc == ch.byProc {
				continue
			}
			if edgeFiredCode(sub.edge, ch.oldB, ch.newB) {
				en.enqueue(sub.proc)
			}
		}
	}
	en.changedSpare = batch[:0]
}

func (en *Engine) runActive() error {
	batch := en.active
	en.active = en.activeSpare[:0]
	for _, pid := range batch {
		en.queued[pid] = false
		if err := en.runProcess(pid); err != nil {
			en.activeSpare = batch[:0]
			return err
		}
	}
	en.activeSpare = batch[:0]
	return nil
}

func (en *Engine) applyNBA() {
	batch := en.nba
	en.nba = en.nbaSpare[:0]
	for _, w := range batch {
		en.storeNet(w.net, w.lo, en.nbaVal[w.dataOff:], en.nbaXZ[w.dataOff:], 0, w.width)
	}
	en.nbaSpare = batch[:0]
	en.nbaVal = en.nbaVal[:0]
	en.nbaXZ = en.nbaXZ[:0]
}

func (en *Engine) runProcess(pid int32) error {
	p := &en.d.procs[pid]
	if p.cont {
		// Continuous assignments observe their own changes (that is what
		// makes a zero-delay combinational loop oscillate, not freeze).
		return p.run(en)
	}
	prev := en.current
	en.current = pid
	err := p.run(en)
	en.current = prev
	return err
}
