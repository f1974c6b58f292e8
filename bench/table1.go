package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/resultstore"
	"repro/internal/testbench"
)

// table1Args configures one Table I regeneration in a child process.
type table1Args struct {
	Seed    int64    `json:"seed"`
	Models  []string `json:"models"`
	Tasks   []int    `json:"tasks,omitempty"` // suite indices; empty means all
	Samples int      `json:"samples"`
	Runs    int      `json:"runs"`
	Workers int      `json:"workers"`
	// Interpreter selects the interpreter backend instead of the compiled one.
	Interpreter bool `json:"interpreter,omitempty"`
	// StoreDir, when set, installs a disk result store rooted there.
	StoreDir string `json:"store_dir,omitempty"`
	// MemoCap, when set, sizes the fingerprint memo (Table1Config.FPMemoCap).
	MemoCap int `json:"memo_cap,omitempty"`
	// Trace wraps the LLM clients and the store with span recorders.
	Trace bool `json:"trace,omitempty"`
	// Spans is where a traced child writes its spans.
	Spans string `json:"spans,omitempty"`
}

// table1Out is what a Table I child reports.
type table1Out struct {
	// Digest is the SHA-256 of Table1Result.Render().
	Digest string `json:"digest"`
	// SetupS is opening the store plus building the suite.
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// CellMS is each (model, task, run) cell's latency, from its LLM client
	// being minted to the cell's last LLM response.
	CellMS    []float64          `json:"cell_ms"`
	PeakRSSKB int64              `json:"peak_rss_kb"`
	FPSims    uint64             `json:"fp_sims"`
	StorePuts uint64             `json:"store_puts"`
	StoreHits uint64             `json:"store_hits"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// table1Child regenerates Table I once and prints its table1Out.
func table1Child(a table1Args, stdout io.Writer) error {
	rec := newRecorder()
	spec := "off"
	if a.StoreDir != "" {
		spec = "disk"
	}
	store, _, err := resultstore.Open(spec, a.StoreDir, 0)
	if err != nil {
		return err
	}
	openS := time.Since(rec.epoch)
	suite := eval.Suite()
	tasks := suite
	if len(a.Tasks) > 0 {
		tasks = make([]eval.Task, len(a.Tasks))
		for i, idx := range a.Tasks {
			tasks[i] = suite[idx]
		}
	}
	var timed *timedStore
	if store != nil {
		defer store.Close()
		var s resultstore.Store = store
		if a.Trace {
			timed = &timedStore{Store: store, rec: rec}
			s = timed
		}
		testbench.SetStore(s)
	}
	setup := time.Since(rec.epoch)

	cells := &cellSet{rec: rec, trace: a.Trace}
	cfg := exp.Table1Config{
		Models:    a.Models,
		Tasks:     tasks,
		Samples:   a.Samples,
		Runs:      a.Runs,
		Seed:      a.Seed,
		Workers:   a.Workers,
		FPMemoCap: a.MemoCap,
		NewClient: cells.newClient,
	}
	if a.Interpreter {
		cfg.Backend = testbench.BackendInterpreter
	}
	start := time.Now()
	res, err := exp.RunTable1(context.Background(), cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	sum := sha256.Sum256([]byte(res.Render()))
	stats := testbench.ReadStoreStats()
	out := table1Out{
		Digest:    hex.EncodeToString(sum[:]),
		SetupS:    setup.Seconds(),
		WallS:     wall.Seconds(),
		FPSims:    stats.Sims,
		StorePuts: stats.Puts,
		StoreHits: stats.Hits,
	}
	if out.PeakRSSKB, err = peakRSSKB("self"); err != nil {
		return err
	}
	for _, c := range cells.cells {
		if last := c.last(); last > 0 {
			out.CellMS = append(out.CellMS, millis(time.Duration(last-c.mint)))
		}
	}
	if a.Trace {
		out.Layers = cells.finish()
		out.Layers["resultstore.open_s"] = openS.Seconds()
		out.Layers["testbench.fp_sims"] = float64(stats.Sims)
		out.Layers["testbench.fp_memo_len"] = float64(testbench.FPMemoLen())
		var storeBusy time.Duration
		if timed != nil {
			timed.addLayers(out.Layers)
			storeBusy = timed.getBusy
		}
		// Cell time outside LLM calls is simulation, ranking and oracle
		// work inside exp; what the store did not take of it is not
		// attributed to any traced layer.
		out.Layers["exp.unattributed_s"] = (cells.selfTime() - storeBusy).Seconds()
		addRuntimeLayers(out.Layers)
		if a.Spans != "" {
			if err := rec.writeJSONL(a.Spans); err != nil {
				return err
			}
		}
	}
	return writeJSONLine(stdout, out)
}

// cellSet mints one LLM client per Table I cell through
// Table1Config.NewClient. Untraced, a client only notes when its last call
// returned; traced, it records a span per call.
type cellSet struct {
	rec   *recorder
	trace bool

	mu    sync.Mutex
	cells []*cellClient
}

func (s *cellSet) newClient(model string, seed int64, tasks []eval.Task) (llm.Client, error) {
	p, err := llm.ProfileByName(model)
	if err != nil {
		return nil, err
	}
	inner, err := llm.NewSimClient(p, seed, tasks)
	if err != nil {
		return nil, err
	}
	c := &cellClient{inner: inner, rec: s.rec, mint: s.rec.now()}
	if s.trace && len(tasks) > 0 {
		c.trace = fmt.Sprintf("%s/%s/%d", model, tasks[0].ID, seed)
	}
	s.mu.Lock()
	s.cells = append(s.cells, c)
	s.mu.Unlock()
	return c, nil
}

// finish records each cell's span with its calls as children, and returns
// the llm layer's metrics summed over every cell.
func (s *cellSet) finish() map[string]float64 {
	m := map[string]float64{}
	for _, c := range s.cells {
		cell := span{Trace: c.trace, Name: "exp.cell", Start: c.mint, End: c.last()}
		id := s.rec.add(cell)
		for _, call := range c.calls {
			call.Parent = id
			s.rec.add(call)
			m[call.Name+".calls"]++
			m[call.Name+".busy_s"] += call.dur().Seconds()
		}
		m["llm.transient_errors"] += float64(c.transient)
	}
	return m
}

// selfTime sums each cell's time outside its own LLM calls.
func (s *cellSet) selfTime() time.Duration {
	var d time.Duration
	for _, c := range s.cells {
		d += selfTime(span{Start: c.mint, End: c.last()}, c.calls)
	}
	return d
}

type cellClient struct {
	inner llm.Client
	rec   *recorder
	trace string // empty when untraced
	mint  int64

	mu        sync.Mutex
	lastEnd   int64
	calls     []span
	transient int
}

func (c *cellClient) last() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEnd
}

func (c *cellClient) done(name string, start int64, err error) {
	end := c.rec.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastEnd = max(c.lastEnd, end)
	if c.trace == "" {
		return
	}
	c.calls = append(c.calls, span{Trace: c.trace, Name: name, Start: start, End: end})
	if errors.Is(err, llm.ErrTransient) {
		c.transient++
	}
}

func (c *cellClient) ModelName() string { return c.inner.ModelName() }

func (c *cellClient) Generate(ctx context.Context, req llm.GenerateRequest) (llm.Response, error) {
	start := c.rec.now()
	resp, err := c.inner.Generate(ctx, req)
	c.done("llm.generate", start, err)
	return resp, err
}

func (c *cellClient) Refine(ctx context.Context, req llm.RefineRequest) (llm.Response, error) {
	start := c.rec.now()
	resp, err := c.inner.Refine(ctx, req)
	c.done("llm.refine", start, err)
	return resp, err
}

func (c *cellClient) JudgeOutput(ctx context.Context, req llm.JudgeRequest) (llm.JudgeResponse, error) {
	start := c.rec.now()
	resp, err := c.inner.JudgeOutput(ctx, req)
	c.done("llm.judge", start, err)
	return resp, err
}

// timedStore records a span and counts around every Get of the store
// installed with testbench.SetStore. No measured workload writes to the
// store: table1-rerun only reads it back.
type timedStore struct {
	resultstore.Store
	rec *recorder

	mu         sync.Mutex
	gets, hits int
	getBusy    time.Duration
}

func (s *timedStore) Get(ctx context.Context, k resultstore.Key) ([]byte, bool, error) {
	start := s.rec.now()
	v, ok, err := s.Store.Get(ctx, k)
	end := s.rec.now()
	s.rec.add(span{Trace: "resultstore", Name: "resultstore.get", Start: start, End: end})
	s.mu.Lock()
	s.gets++
	if ok {
		s.hits++
	}
	s.getBusy += time.Duration(end - start)
	s.mu.Unlock()
	return v, ok, err
}

func (s *timedStore) addLayers(m map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["resultstore.get.calls"] = float64(s.gets)
	m["resultstore.get.hits"] = float64(s.hits)
	m["resultstore.get.busy_s"] = s.getBusy.Seconds()
}

// addRuntimeLayers records the calling process's allocation and GC pauses.
func addRuntimeLayers(m map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	m["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
}

// table1Args returns the registered Table I configuration at the run's seed.
func (r *run) table1Args() table1Args {
	a := r.sizes.table1
	a.Seed = r.seed
	a.Workers = r.nproc
	return a
}

// table1Op regenerates Table I once in a fresh process and records it:
// end-to-end samples when untraced, per-layer values when traced.
func (r *run) table1Op(a table1Args, traced bool) (table1Out, bool) {
	a.Trace = traced
	if traced {
		a.Spans = filepath.Join(r.outDir, "spans-"+r.w.name+".jsonl")
	}
	var out table1Out
	cpu, err := r.child("table1", a, &out)
	r.attempted++
	if err != nil {
		r.fails.add("table1 process: %v", err)
		return out, false
	}
	if traced {
		r.tracedWall = append(r.tracedWall, out.WallS)
		for k, v := range out.Layers {
			r.layer(k, v)
		}
		for _, k := range table1Unmeasured {
			r.layer(k, notMeasured)
		}
		return out, true
	}
	r.untracedWall = append(r.untracedWall, out.WallS)
	r.sample(secondsDur(out.SetupS), secondsDur(out.WallS), cpu, out.PeakRSSKB, out.CellMS)
	return out, true
}

// runTable1 regenerates paper-size Table I with the store off.
func runTable1(r *run) error {
	a := r.table1Args()
	return r.loop(func(traced bool) error {
		if out, ok := r.table1Op(a, traced); ok {
			r.sameDigest(out.Digest)
		}
		return nil
	})
}

// runTable1Rerun populates a store once, before the clock starts, then
// regenerates Table I over it in fresh processes: every fingerprint is
// read back and nothing simulates. Populating is not measured: on the
// machine the bounds were set on, the run-to-run spread of populate times
// (quartile distance over median, ten runs) reached 18–23%, about the
// largest bound a metric may have.
func runTable1Rerun(r *run) error {
	a := r.table1Args()
	store := filepath.Join(r.workdir, "rerun-store")
	if err := os.RemoveAll(store); err != nil {
		return err
	}
	defer os.RemoveAll(store)
	a.StoreDir = store
	var fixture table1Out
	if _, err := r.child("table1", a, &fixture); err != nil {
		return fmt.Errorf("populate the rerun store: %w", err)
	}
	r.sameDigest(fixture.Digest)
	return r.loop(func(traced bool) error {
		out, ok := r.table1Op(a, traced)
		if !ok {
			return nil
		}
		r.sameDigest(out.Digest)
		if out.FPSims != 0 {
			r.checkFail("table1-rerun simulated %d fingerprints over a populated store", out.FPSims)
		}
		return nil
	})
}

// checkReduced regenerates a reduced Table I four ways, each in a fresh
// process, and requires one table from all of them: on the compiled
// backend with the store off (the reference), on the interpreter backend,
// into an empty disk store, and over that store again. The store passes
// keep a one-entry fingerprint memo, so nearly every repeated fingerprint
// is read back from the store: a store must never change results. The
// populate pass must write and read the store; the rerun must not
// simulate.
func (r *run) checkReduced() error {
	a := r.sizes.reduced
	a.Seed = r.seed
	a.Workers = r.nproc
	dir := filepath.Join(r.workdir, "check-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	interp := a
	interp.Interpreter = true
	stored := a
	stored.StoreDir, stored.MemoCap = dir, 1
	var ref, interpOut, populate, rerun table1Out
	for _, p := range []struct {
		name string
		a    table1Args
		out  *table1Out
	}{
		{"compiled", a, &ref},
		{"interpreter", interp, &interpOut},
		{"store populate", stored, &populate},
		{"store rerun", stored, &rerun},
	} {
		if _, err := r.child("table1", p.a, p.out); err != nil {
			return fmt.Errorf("reduced Table I (%s): %w", p.name, err)
		}
		if p.out.Digest != ref.Digest {
			r.checkFail("reduced Table I (%s) renders %.12s, the compiled store-off pass %.12s", p.name, p.out.Digest, ref.Digest)
		}
	}
	if populate.StorePuts == 0 || populate.StoreHits == 0 {
		r.checkFail("reduced Table I store populate wrote %d and read back %d fingerprints; both must be positive", populate.StorePuts, populate.StoreHits)
	}
	if rerun.FPSims != 0 {
		r.checkFail("reduced Table I store rerun simulated %d fingerprints over a populated store", rerun.FPSims)
	}
	return nil
}

// strideTasks returns the suite indices 0, stride, 2*stride, ...
func strideTasks(stride int) []int {
	var idx []int
	for i := 0; i < eval.SuiteSize; i += stride {
		idx = append(idx, i)
	}
	return idx
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
