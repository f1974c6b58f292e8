// Package eval provides the 156-task Verilog generation benchmark used by
// the experiments: a deterministic, self-contained substitute for
// VerilogEval-Human with the same split (81 combinational, 75 sequential)
// and the same task-family mix (gates, muxes, k-maps, vector ops, adders,
// counters, shift registers, FSMs, ...).
//
// Each task carries a natural-language specification, a hidden golden
// implementation, interface metadata for testbench generation, an intrinsic
// difficulty rating consumed by the simulated LLM, and a SimpleDesc flag
// marking k-map/waveform-like tasks whose expected outputs an LLM can judge
// directly (the paper's inter-cluster refinement distinction).
package eval

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/testbench"
	"repro/internal/verilog/parser"
)

// Category splits the benchmark the way the paper's Table I does.
type Category int

// Task categories.
const (
	Combinational Category = iota + 1
	Sequential
)

// String names the category like the paper ("CMB"/"SEQ").
func (c Category) String() string {
	if c == Combinational {
		return "CMB"
	}
	return "SEQ"
}

// Task is one benchmark problem.
type Task struct {
	// ID is a unique stable identifier, e.g. "cmb_kmap_03".
	ID string
	// Index is the position in the suite (0..155).
	Index int
	// Category is CMB or SEQ.
	Category Category
	// Family groups related tasks (gates, kmap, counter, fsm, ...).
	Family string
	// Spec is the natural-language module specification handed to the LLM.
	Spec string
	// Golden is the hidden reference implementation (module top_module).
	Golden string
	// Ifc describes the ports for testbench generation.
	Ifc testbench.Interface
	// Difficulty in (0,1): the probability scale of the simulated LLM
	// getting the task wrong; calibrated per family to match the paper's
	// baseline pass rates.
	Difficulty float64
	// SimpleDesc marks k-map/waveform-like tasks where expected outputs are
	// directly reasonable from the spec (enables inter-cluster output
	// judging in post-ranking refinement).
	SimpleDesc bool
}

// TopModule is the module name every task uses, matching VerilogEval.
const TopModule = "top_module"

// SuiteSize is the total number of tasks, matching VerilogEval-Human.
const SuiteSize = 156

// Suite returns the full deterministic benchmark: 81 combinational tasks
// followed by 75 sequential tasks.
func Suite() []Task {
	var tasks []Task
	tasks = append(tasks, combTasks()...)
	tasks = append(tasks, seqTasks()...)
	for i := range tasks {
		tasks[i].Index = i
	}
	return tasks
}

// ByCategory filters the suite.
func ByCategory(tasks []Task, c Category) []Task {
	var out []Task
	for _, t := range tasks {
		if t.Category == c {
			out = append(out, t)
		}
	}
	return out
}

// Families returns the sorted set of family names present in tasks.
func Families(tasks []Task) []string {
	set := make(map[string]bool)
	for _, t := range tasks {
		set[t.Family] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// jitter returns a deterministic per-ID difficulty jitter in [-d, +d].
func jitter(id string, d float64) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	u := float64(h.Sum64()%10000) / 10000 // [0,1)
	return (2*u - 1) * d
}

// clampDifficulty keeps difficulties in a sane open interval.
func clampDifficulty(d float64) float64 {
	if d < 0.02 {
		return 0.02
	}
	if d > 0.97 {
		return 0.97
	}
	return d
}

// familyRand returns a deterministic RNG for a parameterized family member,
// so regenerating the suite always yields identical tasks.
func familyRand(family string, n int) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(fmt.Sprintf("%s/%d", family, n)))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// mustParse panics if a golden design does not parse; the suite is static
// data, so a failure here is a programming error caught by tests.
func mustParse(id, src string) {
	if _, err := parser.Parse(src); err != nil {
		panic(fmt.Sprintf("task %s: golden does not parse: %v", id, err))
	}
}

// newTask assembles a task and sanity-checks its golden design.
func newTask(id string, cat Category, family, spec, golden string, ifc testbench.Interface, baseDifficulty float64, simple bool) Task {
	mustParse(id, golden)
	return Task{
		ID:         id,
		Category:   cat,
		Family:     family,
		Spec:       spec,
		Golden:     golden,
		Ifc:        ifc,
		Difficulty: clampDifficulty(baseDifficulty + jitter(id, 0.12)),
		SimpleDesc: simple,
	}
}

// in1 builds a single-bit input PortSpec.
func in1(name string) testbench.PortSpec { return testbench.PortSpec{Name: name, Width: 1} }

// inw builds a vector input PortSpec.
func inw(name string, w int) testbench.PortSpec { return testbench.PortSpec{Name: name, Width: w} }
