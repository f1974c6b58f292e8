// Compiled simulation backend: Compile flattens an elaborated design into an
// index-addressed netlist whose entire mutable state lives in two flat
// per-Engine []uint64 planes (val/xz). Every net owns a contiguous word range
// in the planes, and every intermediate expression of every process owns a
// scratch word range assigned at compile time, so compiled processes are
// destination-passing kernels that read operand slots and write their result
// slot in place: steady-state evaluation performs zero heap allocations.
// Boxed Values survive only at the API boundary (SetInput/Output). A Design
// is immutable and safe for concurrent use; each concurrent evaluation gets
// its own cheap Engine (pooled via AcquireEngine/ReleaseEngine).
//
// Every process is lowered once, to the register-file form (regfile.go),
// which statically sizes every slot. It handles every construct whose result
// width has a compile-time bound: in practice all real designs. A design
// holding a construct without one (a part-select with non-constant [a:b]
// bounds or a non-constant indexed width, a replication with a non-constant
// count, an intermediate wider than maxRegCap) is refused with
// ErrUnsupported, and such a design runs on the interpreter instead.
//
// The lowering deliberately mirrors the interpreter (eval.go) construct by
// construct — width contexts, X-propagation, part-select bounds, event
// semantics — and the two are held together by differential tests
// (random_expr_test.go, kernel_width_test.go) rather than trust. One
// intended difference: the interpreter reports unknown identifiers and
// unsupported statements or expressions lazily at first execution, while
// Compile rejects them up front.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/verilog/ast"
)

// maxRegCap bounds the static bit capacity of a register-file slot. A node
// whose width bound exceeds it (e.g. nested replications) makes the design
// ErrUnsupported rather than reserving absurd frame space.
const maxRegCap = 1 << 16

// ErrUnsupported reports a design the register-file lowering cannot size
// statically. It is not a fault of the design: the interpreter runs it.
var ErrUnsupported = errors.New("compile: construct has no static width bound")

// cnet is one compiled net slot (static metadata; values live in the
// Engine's planes at [off, off+nw)).
type cnet struct {
	name  string
	width int
	lsb   int
	off   int32 // word offset in the frame
	nw    int32 // words(width)
}

// cproc is one compiled process: a closure over frame offsets.
type cproc struct {
	run  func(en *Engine) error
	cont bool
}

// cedgeSub is an edge-sensitive subscription of a process to a net.
type cedgeSub struct {
	proc int32
	edge ast.EdgeKind
}

// Design is a compiled, elaborated design. It is immutable after Compile and
// safe for concurrent use: all mutable simulation state lives in Engines.
type Design struct {
	top        string
	nets       []cnet
	stateWords int32 // words holding net state (prefix of the frame)
	frameWords int32 // total frame size: state + constant pool + scratch
	// initVal/initXZ are the frame snapshot after initial blocks + first
	// settle: net state, then compile-time constants, then zeroed scratch.
	initVal []uint64
	initXZ  []uint64

	procs    []cproc
	levelFan [][]int32
	edgeFan  [][]cedgeSub
	inputs   []PortInfo
	outputs  []PortInfo
	topIdx   map[string]int32 // top-scope local name -> net index
	inputIdx map[string]int32 // top-level input port name -> net index

	pool sync.Pool // recycled Engines (AcquireEngine/ReleaseEngine)
}

// Top returns the top module name the design was compiled for.
func (d *Design) Top() string { return d.top }

// InputHandle resolves a top-level input port name to a handle usable with
// the Engine's handle-bound stimulus methods (SetInputH, SetInputUintH,
// TickH). Resolution costs one map lookup; handles are valid for every
// Engine of this Design, so the testbench resolves each name once per
// (design, stimulus) pair instead of once per drive. Non-input names fail
// with ErrNotInput, exactly like SetInput.
func (d *Design) InputHandle(name string) (int, error) {
	idx, ok := d.inputIdx[name]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrNotInput, name)
	}
	return int(idx), nil
}

// OutputHandle resolves a top-level net name (usually an output port) to a
// handle usable with the Engine's handle-bound observation methods
// (HashOutputH, AppendOutputH, OutputH). Unknown names fail with
// ErrUnknownNet, exactly like Output.
func (d *Design) OutputHandle(name string) (int, error) {
	idx, ok := d.topIdx[name]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrUnknownNet, name)
	}
	return int(idx), nil
}

// NumNets returns the number of flattened nets.
func (d *Design) NumNets() int { return len(d.nets) }

// FrameWords returns the per-Engine state size in 64-bit words (net state,
// constant pool, and expression scratch).
func (d *Design) FrameWords() int { return int(d.frameWords) }

// Compile elaborates src with the given top module and compiles it. The
// initial state (initial blocks executed, combinational logic settled) is
// computed once here; NewEngine then only copies the frame snapshot. A design
// the register file cannot size fails with ErrUnsupported.
func Compile(src *ast.Source, top string) (*Design, error) {
	s, err := New(src, top)
	if err != nil {
		return nil, err
	}
	return compileFrom(s)
}

// compiler carries the cross-references needed while lowering processes.
type compiler struct {
	netIdx     map[*net]int32
	d          *Design
	frameWords int32
	consts     []constPatch
}

type constPatch struct {
	off int32
	v   Value
}

// alloc reserves nwords words of frame space and returns their offset.
func (c *compiler) alloc(nwords int) int32 {
	off := c.frameWords
	c.frameWords += int32(nwords)
	return off
}

// allocConst interns a constant Value in the frame's constant pool.
func (c *compiler) allocConst(v Value) int32 {
	off := c.alloc(words(v.Width()))
	c.consts = append(c.consts, constPatch{off: off, v: v})
	return off
}

func compileFrom(s *Simulator) (*Design, error) {
	d := &Design{
		top:     s.topName,
		inputs:  append([]PortInfo(nil), s.inputs...),
		outputs: append([]PortInfo(nil), s.outputs...),
		topIdx:  make(map[string]int32, len(s.topScope.nets)),
	}
	c := &compiler{
		netIdx: make(map[*net]int32, len(s.nets)),
		d:      d,
	}
	d.nets = make([]cnet, len(s.nets))
	for i, n := range s.nets {
		c.netIdx[n] = int32(i)
		nw := int32(words(n.width))
		d.nets[i] = cnet{name: n.name, width: n.width, lsb: n.lsb, off: c.alloc(int(nw)), nw: nw}
	}
	d.stateWords = c.frameWords
	for name, n := range s.topScope.nets {
		d.topIdx[name] = c.netIdx[n]
	}
	d.inputIdx = make(map[string]int32, len(d.inputs))
	for _, in := range d.inputs {
		if idx, ok := d.topIdx[in.Name]; ok {
			d.inputIdx[in.Name] = idx
		}
	}

	// Initial-only processes ran during New and never re-trigger, so they are
	// dropped; everything else is lowered in registration order.
	procID := make(map[*process]int32, len(s.procs))
	for _, p := range s.procs {
		if p.initialOnly {
			continue
		}
		cp, err := c.compileProcess(p)
		if err != nil {
			return nil, err
		}
		procID[p] = int32(len(d.procs))
		d.procs = append(d.procs, cp)
	}

	d.levelFan = make([][]int32, len(s.nets))
	d.edgeFan = make([][]cedgeSub, len(s.nets))
	for i, n := range s.nets {
		for _, p := range n.levelFanout {
			if id, ok := procID[p]; ok {
				d.levelFan[i] = append(d.levelFan[i], id)
			}
		}
		for _, sub := range n.edgeFanout {
			if id, ok := procID[sub.proc]; ok {
				d.edgeFan[i] = append(d.edgeFan[i], cedgeSub{proc: id, edge: sub.edge})
			}
		}
	}

	// Assemble the frame snapshot: net state from the settled simulator,
	// then interned constants, then zeroed scratch.
	d.frameWords = c.frameWords
	d.initVal = make([]uint64, d.frameWords)
	d.initXZ = make([]uint64, d.frameWords)
	for i, n := range s.nets {
		cn := &d.nets[i]
		copy(d.initVal[cn.off:cn.off+cn.nw], n.value.val)
		copy(d.initXZ[cn.off:cn.off+cn.nw], n.value.xz)
	}
	for _, cp := range c.consts {
		copy(d.initVal[cp.off:], cp.v.val)
		copy(d.initXZ[cp.off:], cp.v.xz)
	}
	return d, nil
}
