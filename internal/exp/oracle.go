// Package exp implements the paper's experiments: Table I (framework
// comparison), Fig. 3 (pass rate versus normalized reasoning length) and
// Fig. 4 (pass@1 versus sample count), plus the ablation studies listed in
// DESIGN.md. Each experiment is a pure function of its config and seeds.
package exp

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"repro/internal/eval"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// oracleBackend note: golden traces and candidate traces always run on the
// same backend, so verification compares like with like.

// ErrExperiment wraps experiment-level failures.
var ErrExperiment = errors.New("experiment failed")

// Oracle scores candidate code against a task's golden design under a dense
// verification testbench — the role the VerilogEval reference testbenches
// play in the paper. Golden fingerprints are computed once per task and
// cached. Verification only needs a verdict, so each candidate runs until
// its first case that disagrees with the golden (testbench.VerifyGang). The
// oracle is safe for concurrent use.
type Oracle struct {
	seed int64
	// Backend selects the simulation engine (zero value: compiled).
	Backend testbench.Backend

	tasks map[string]eval.Task // read-only after NewOracle

	mu       sync.Mutex // guards prepared and verdicts
	prepared map[string]*oracleTask
	verdicts map[verdictKey]bool
}

// oracleTask is one task's verification setup, prepared at most once: the
// first caller builds it under once while concurrent callers wait on the
// once, not on the oracle's lock.
type oracleTask struct {
	once   sync.Once
	st     *testbench.Stimulus
	golden *testbench.FPTrace
	err    error
}

// verdictKey caches verification results by task and the SHA-256 of the
// candidate text (candidate generation is deterministic, so identical code
// recurs across pipeline variants).
type verdictKey struct {
	taskID string
	code   [sha256.Size]byte
}

// NewOracle builds an oracle over the given tasks.
func NewOracle(tasks []eval.Task, seed int64) *Oracle {
	o := &Oracle{
		seed:     seed,
		tasks:    make(map[string]eval.Task, len(tasks)),
		prepared: make(map[string]*oracleTask, len(tasks)),
		verdicts: make(map[verdictKey]bool),
	}
	for _, t := range tasks {
		o.tasks[t.ID] = t
	}
	return o
}

// prepare returns the task's verification stimulus and golden fingerprints,
// computing them once per task. The stimulus generation and golden
// simulation run outside o.mu, so verdict lookups for other tasks never wait
// on them.
func (o *Oracle) prepare(taskID string) (*oracleTask, error) {
	task, ok := o.tasks[taskID]
	if !ok {
		return nil, fmt.Errorf("%w: unknown task %q", ErrExperiment, taskID)
	}
	o.mu.Lock()
	ot := o.prepared[taskID]
	if ot == nil {
		ot = &oracleTask{}
		o.prepared[taskID] = ot
	}
	o.mu.Unlock()
	ot.once.Do(func() { ot.err = o.build(ot, task) })
	if ot.err != nil {
		// Failures are not kept: the next call prepares afresh.
		o.mu.Lock()
		if o.prepared[taskID] == ot {
			delete(o.prepared, taskID)
		}
		o.mu.Unlock()
		return nil, ot.err
	}
	return ot, nil
}

// build fills ot for task. Every field it sets is published by ot.once.
func (o *Oracle) build(ot *oracleTask, task eval.Task) error {
	st := testbench.VerificationCached(o.seed+int64(task.Index), task.Ifc)
	src, err := eval.ParseCached(task.Golden)
	if err != nil {
		return fmt.Errorf("%w: golden parse: %v", ErrExperiment, err)
	}
	// A background context: the golden run is shared by every later caller
	// of prepare, so no one caller's cancellation may cut it short.
	fps, err := testbench.RunFingerprints(context.Background(), []*ast.Source{src}, eval.TopModule, st, o.Backend)
	if err != nil {
		return fmt.Errorf("%w: golden simulation: %v", ErrExperiment, err)
	}
	golden := fps[0]
	if golden.Err != nil {
		return fmt.Errorf("%w: golden simulation: %v", ErrExperiment, golden.Err)
	}
	golden.Fingerprint() // warm the memo before concurrent reads
	ot.st, ot.golden = st, golden
	return nil
}

// Verify reports whether candidate code is functionally correct for the
// task: it must parse and match the golden behavior on every verification
// case. It is VerifyBatch over a batch of one, under a background context.
func (o *Oracle) Verify(taskID, code string) (bool, error) {
	v, err := o.VerifyBatch(context.Background(), taskID, []string{code})
	if err != nil {
		return false, err
	}
	return v[0], nil
}

// VerifyBatch verifies a batch of candidates for one task. All unverified
// parseable candidates run as one verdict-only batch (testbench.VerifyGang)
// over the shared dense verification stimulus: each candidate's run stops
// at its first case that disagrees with the golden.
//
// A batch with candidates left to verify fails with ctx's error, wrapped in
// ErrExperiment, once ctx is done: before it starts, or from the run. A
// failed batch memoizes no verdict.
func (o *Oracle) VerifyBatch(ctx context.Context, taskID string, codes []string) ([]bool, error) {
	out := make([]bool, len(codes))
	keys := make([]verdictKey, len(codes))
	pending := make([]int, 0, len(codes)) // first index per unresolved unique key
	seen := make(map[verdictKey]bool, len(codes))
	for i, code := range codes {
		keys[i] = verdictKey{taskID: taskID, code: sha256.Sum256([]byte(code))}
	}
	o.mu.Lock()
	for i := range codes {
		if _, hit := o.verdicts[keys[i]]; !hit && !seen[keys[i]] {
			seen[keys[i]] = true
			pending = append(pending, i)
		}
	}
	o.mu.Unlock()

	if len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrExperiment, err)
		}
		ot, err := o.prepare(taskID)
		if err != nil {
			return nil, err
		}
		verdicts := make([]bool, len(pending)) // unparseable: stays false
		batch := make([]*ast.Source, 0, len(pending))
		batchAt := make([]int, 0, len(pending))
		for k, i := range pending {
			if src := mustParse(codes[i]); src != nil {
				batch = append(batch, src)
				batchAt = append(batchAt, k)
			}
		}
		gv, err := testbench.VerifyGang(ctx, batch, eval.TopModule, ot.st, o.Backend, ot.golden)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrExperiment, err)
		}
		for j, k := range batchAt {
			verdicts[k] = gv[j]
		}
		o.mu.Lock()
		for k, i := range pending {
			o.verdicts[keys[i]] = verdicts[k]
		}
		o.mu.Unlock()
	}

	o.mu.Lock()
	for i := range codes {
		out[i] = o.verdicts[keys[i]]
	}
	o.mu.Unlock()
	return out, nil
}

// mustParse returns the parsed source when the code is a valid candidate
// containing the top module, else nil (verdict false, as in Verify).
func mustParse(code string) *ast.Source {
	src, err := eval.ParseCached(code)
	if err != nil || src.FindModule(eval.TopModule) == nil {
		return nil
	}
	return src
}
