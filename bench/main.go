// Command bench is the repository's benchmark. It measures the paper's
// Table I regeneration (exp.RunTable1) and the vfocusd ranking daemon, each
// operation in a fresh process, checks every output, and prints every
// metric by name with its unit. See README.md for the protocol.
//
// One run of one workload (the last stdout line is a JSON result):
//
//	bench -workload table1 -seed 1 -seconds 25 -trace 0
//
// The full protocol (every workload, three rotated untraced rounds plus a
// traced round, one JSON record written to -out):
//
//	bench -seed 1
//
// bench/run.sh builds this command and the daemon and passes -vfocusd.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; bench_test.go holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs. A Table I "job" is one (model, task, run) cell; a daemon job is one
// POST /jobs streamed to its terminal event.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
}

// perLayer are reported by traced runs, timed around public calls into
// each layer. A layer a workload does not reach reports 0; one that works
// there but that no public seam times reports notMeasured.
var perLayer = []metricDef{
	{"llm.generate.calls", "count"},
	{"llm.generate.busy_s", "s"},
	{"llm.refine.calls", "count"},
	{"llm.refine.busy_s", "s"},
	{"llm.judge.calls", "count"},
	{"llm.transient_errors", "count"},
	{"resultstore.open_s", "s"},
	{"resultstore.get.calls", "count"},
	{"resultstore.get.hits", "count"},
	{"resultstore.get.busy_s", "s"},
	{"testbench.fp_sims", "count"},
	{"testbench.fp_memo_len", "count"},
	{"testbench.stimulus.busy_s", "s"},
	{"core.validate.calls", "count"},
	{"core.validate.busy_s", "s"},
	{"core.rank.calls", "count"},
	{"core.rank.busy_s", "s"},
	{"core.rank.candidates", "count"},
	{"core.rank.unique_jobs", "count"},
	{"core.rank.dedup_ratio", "ratio"},
	{"core.rank.batches", "count"},
	{"core.rank.sim_ratio", "ratio"},
	{"sim.us_per_fp_sim", "us"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.first_event_p50_ms", "ms"},
	{"serve.stream_p50_ms", "ms"},
	{"serve.overhead_p50_ms", "ms"},
	{"serve.rejects", "count"},
	{"serve.stream_reopens", "count"},
	{"exp.unattributed_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// notMeasured is the value of a per-layer metric whose layer does work on
// the workload but is not timed there. No measured value is negative.
const notMeasured = -1

// table1Unmeasured are the layers that run inside exp.RunTable1, where no
// public seam reaches them; the daemon workloads measure them by replay.
var table1Unmeasured = []string{
	"testbench.stimulus.busy_s",
	"core.validate.calls",
	"core.validate.busy_s",
	"core.rank.calls",
	"core.rank.busy_s",
	"core.rank.candidates",
	"core.rank.unique_jobs",
	"core.rank.dedup_ratio",
	"core.rank.batches",
	"core.rank.sim_ratio",
	"sim.us_per_fp_sim",
}

// rounds is how many untraced rounds the full protocol runs.
const rounds = 3

// workload is one set of inputs the benchmark runs. The reasons each
// exists are in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"table1", runTable1},
	{"table1-rerun", runTable1Rerun},
	{"daemon-cold", runDaemonCold},
	{"daemon-hot", runDaemonHot},
}

// checkRegistration requires the BENCHMARK.json at path to list this
// command's workloads and metrics, in the same order and with the same
// units, so that the registration and the code cannot drift apart.
func checkRegistration(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var reg struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var ws []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name})
	}
	entries := func(defs []metricDef) (es []entry) {
		for _, d := range defs {
			es = append(es, entry{d.name, d.unit})
		}
		return es
	}
	for _, c := range []struct {
		key       string
		reg, code []entry
	}{
		{"workloads", reg.Workloads, ws},
		{"end_to_end", reg.EndToEnd, entries(endToEnd)},
		{"per_layer", reg.PerLayer, entries(perLayer)},
	} {
		if !slices.Equal(c.reg, c.code) {
			return fmt.Errorf("%s %s lists %v, the code %v", path, c.key, c.reg, c.code)
		}
	}
	return nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes pins how much work one operation of each workload does.
type sizes struct {
	// table1 is the Table I configuration of every Table I workload.
	table1 table1Args
	// reduced is the Table I that must read the same on the compiled and
	// the interpreter backends, and with the store off and on.
	reduced table1Args
	// coldJobs and hotJobs are the jobs per daemon batch; hotPools is how
	// many distinct (task, seed, pool) jobs the hot batch cycles through;
	// coldPoolSize and hotPoolSize are the candidates generated per pool.
	coldJobs, hotJobs, hotPools, coldPoolSize, hotPoolSize int
}

// paperSizes is the benchmark as registered: paper-size Table I (three
// models, all 156 tasks, n=50) cut to one run so that one regeneration
// takes about 2 s and a run holds several, and daemon batches large enough
// that each supports a p99. Hot pools are four times the cold ones: at 30
// candidates a hot job took about 0.5 ms, and on a shared machine its p99
// moved by 20% between runs of the same code while the speed probe held
// steady. At 120 a hot job still simulates nothing, takes about 1 ms, and
// its p99 moved by about 5%.
func paperSizes() sizes {
	return sizes{
		table1: table1Args{
			Models:  []string{"deepseek-r1", "o3-mini-high", "qwq-32b"},
			Samples: 50,
			Runs:    1,
		},
		reduced: table1Args{
			Models:  []string{"deepseek-r1"},
			Tasks:   strideTasks(13),
			Samples: 20,
			Runs:    1,
		},
		coldJobs:     1000,
		hotJobs:      2000,
		hotPools:     8,
		coldPoolSize: 30,
		hotPoolSize:  120,
	}
}

// bench holds what every run shares.
type bench struct {
	ctx     context.Context
	seed    int64
	vfocusd string // daemon binary
	workdir string // working space: stores, job files, spans
	outDir  string // records and spans
	self    string // this executable, re-run for child processes
	nproc   int
	sizes   sizes
	// minIters is the fewest operations a run measures, whatever its
	// time budget.
	minIters int
	log      io.Writer
	// reducedChecked is set once the reduced Table I check has run in this
	// process.
	reducedChecked bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload and print its JSON result; empty runs the full protocol over -workloads")
		list    = fs.String("workloads", "", "comma-separated workloads for the full protocol (default: all)")
		seed    = fs.Int64("seed", 1, "input seed")
		secs    = fs.Int("seconds", 25, "measuring time of one run")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from traced operations instead of end-to-end metrics")
		vfocusd = fs.String("vfocusd", "", "vfocusd binary (bench/run.sh builds one)")
		workdir = fs.String("workdir", ".bench_build", "working directory for stores, job files and spans")
		out     = fs.String("out", "", "directory for records and spans (default <workdir>/out)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if err := checkRegistration("BENCHMARK.json"); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(ctx, *seed, *vfocusd, *workdir, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	budget := time.Duration(*secs) * time.Second
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := b.runWorkload(w, *trace == 1, budget)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		line, _ := json.Marshal(res.result())
		fmt.Fprintln(stdout, string(line))
		if !res.correct() {
			return 1
		}
		return 0
	}
	var ws []workload
	for _, n := range strings.Split(*list, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
			return 2
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		ws = workloads
	}
	ok, err := b.protocol(ws, budget, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func newBench(ctx context.Context, seed int64, vfocusd, workdir, out string, log io.Writer) (*bench, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if workdir, err = filepath.Abs(workdir); err != nil {
		return nil, err
	}
	if out == "" {
		out = filepath.Join(workdir, "out")
	}
	if out, err = filepath.Abs(out); err != nil {
		return nil, err
	}
	for _, d := range []string{workdir, out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if vfocusd != "" {
		if vfocusd, err = filepath.Abs(vfocusd); err != nil {
			return nil, err
		}
	}
	return &bench{
		ctx:      ctx,
		seed:     seed,
		vfocusd:  vfocusd,
		workdir:  workdir,
		outDir:   out,
		self:     self,
		nproc:    runtime.NumCPU(),
		sizes:    paperSizes(),
		minIters: 3,
		log:      log,
	}, nil
}

// run is one measured run of one workload: operations repeat, each in a
// fresh process, until the time budget is spent.
type run struct {
	*bench
	w      workload
	trace  bool
	budget time.Duration

	attempted int
	fails     failures
	// reopens counts daemon job streams that ended without a terminal event
	// and were opened again.
	reopens int
	// checks lists failed output checks; any entry makes the run incorrect.
	checks []string
	// digest is the SHA-256 of the rendered Table I every operation of a
	// Table I workload must reproduce.
	digest string

	// ops holds every untraced operation's end-to-end values, unscaled;
	// probes holds the speed probe's readings before each operation and
	// after the last.
	ops    []opSample
	probes []speed
	// layers holds one value per traced operation for each per-layer
	// metric; tracedWall and untracedWall give the tracing overhead.
	layers       map[string][]float64
	tracedWall   []float64
	untracedWall []float64
	// spans of the last traced operation, written out at the end.
	spans *recorder
}

func (b *bench) newRun(w workload, trace bool, budget time.Duration) *run {
	return &run{
		bench:  b,
		w:      w,
		trace:  trace,
		budget: budget,
		fails:  failures{},
		layers: map[string][]float64{},
	}
}

// runWorkload measures one run of w and prints its report.
func (b *bench) runWorkload(w workload, trace bool, budget time.Duration) (*run, error) {
	r := b.newRun(w, trace, budget)
	if !b.reducedChecked {
		if err := r.checkReduced(); err != nil {
			return nil, err
		}
		b.reducedChecked = true
	}
	if err := w.run(r); err != nil {
		return nil, err
	}
	if r.spans != nil {
		path := filepath.Join(b.outDir, "spans-"+w.name+".jsonl")
		if err := r.spans.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	r.report()
	return r, nil
}

// loop runs op until the budget is spent: another operation starts only
// while the previous one's duration still fits, and at least minIters run
// (two in a traced run, which alternates untraced and traced operations so
// that it can report the tracing overhead). The speed probe runs before
// every operation and after the last.
func (r *run) loop(op func(traced bool) error) error {
	least := r.minIters
	if r.trace {
		least = max(least, 2)
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i < least || time.Since(start)+last <= r.budget; i++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		r.probes = append(r.probes, probe())
		t := time.Now()
		if err := op(r.trace && i%2 == 1); err != nil {
			return err
		}
		last = time.Since(t)
	}
	r.probes = append(r.probes, probe())
	return nil
}

func (r *run) checkFail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// sameDigest checks that every Table I operation of the run rendered the
// same table; the first one sets the run's digest.
func (r *run) sameDigest(got string) {
	switch {
	case r.digest == "":
		r.digest = got
	case got != r.digest:
		r.checkFail("%s: Table I digest %.12s differs from the run's reference %.12s", r.w.name, got, r.digest)
	}
}

// opSample is one untraced operation's end-to-end values, unscaled.
type opSample struct {
	probe            int // index in run.probes of the probe just before it
	setup, wall, cpu time.Duration
	rssKB            int64
	jobMS            []float64
}

// sample records the untraced operation that loop is running.
func (r *run) sample(setup, wall, cpu time.Duration, rssKB int64, jobMS []float64) {
	r.ops = append(r.ops, opSample{probe: len(r.probes) - 1, setup: setup, wall: wall, cpu: cpu, rssKB: rssKB, jobMS: jobMS})
}

// scale returns the factors that bring an operation's wall-clock and CPU
// times to the reference speed: 1 when raw is set.
func (r *run) scale(o opSample, raw bool) (f, fcpu float64) {
	if raw {
		return 1, 1
	}
	before, after := r.probes[o.probe], r.probes[o.probe+1]
	return probeRef.wall / ((before.wall + after.wall) / 2), probeRef.cpu / ((before.cpu + after.cpu) / 2)
}

// opValues returns an end-to-end metric's values over the run's untraced
// operations: one per operation, or one per job for job latencies. Times
// are scaled to the reference speed unless raw is set.
func (r *run) opValues(name string, raw bool) []float64 {
	var xs []float64
	for _, o := range r.ops {
		f, fcpu := r.scale(o, raw)
		switch name {
		case "setup_s":
			xs = append(xs, o.setup.Seconds()*f)
		case "wall_s":
			xs = append(xs, o.wall.Seconds()*f)
		case "cpu_s":
			xs = append(xs, o.cpu.Seconds()*fcpu)
		case "peak_rss_mb":
			xs = append(xs, float64(o.rssKB)/1024)
		case "job_p50_ms", "job_p99_ms":
			for _, ms := range o.jobMS {
				xs = append(xs, ms*f)
			}
		}
	}
	return xs
}

// jobWindow is how many jobs one p99 estimate pools at least, so that
// minTail of them lie beyond it.
const jobWindow = 100 * minTail

// windowP99 returns the median, over windows of consecutive untraced
// operations, of each window's 99th-percentile job latency. A window closes
// once it holds jobWindow jobs; jobs left over at the end join the last
// window. One window that a burst of the neighbours' load slowed moves the
// median little, where it would set a p99 pooled over the whole run. ok is
// false when the run holds fewer than jobWindow jobs.
func (r *run) windowP99(raw bool) (v float64, ok bool) {
	var windows [][]float64
	var cur []float64
	for _, o := range r.ops {
		f, _ := r.scale(o, raw)
		for _, ms := range o.jobMS {
			cur = append(cur, ms*f)
		}
		if len(cur) >= jobWindow {
			windows, cur = append(windows, cur), nil
		}
	}
	if len(windows) == 0 {
		return math.NaN(), false
	}
	windows[len(windows)-1] = append(windows[len(windows)-1], cur...)
	p99s := make([]float64, len(windows))
	for i, w := range windows {
		p99s[i], _ = tailPercentile(w, 99)
	}
	return median(p99s), true
}

func (r *run) layer(name string, v float64) { r.layers[name] = append(r.layers[name], v) }

func (r *run) correct() bool { return len(r.checks) == 0 }

// value returns a metric's reported value; ok is false when the run has
// too few samples for it.
func (r *run) value(name string) (v float64, ok bool) { return r.valueOf(name, false) }

func (r *run) valueOf(name string, raw bool) (v float64, ok bool) {
	switch {
	case name == "job_p99_ms":
		v, _ = r.windowP99(raw)
	case name == "trace_overhead_pct":
		v = 100 * (median(r.tracedWall)/median(r.untracedWall) - 1)
	case r.trace && len(r.layers[name]) == 0 && len(r.tracedWall) > 0:
		v = 0 // a layer this workload does not reach
	case r.trace:
		v = median(r.layers[name])
	default:
		v = median(r.opValues(name, raw))
	}
	return v, !math.IsNaN(v) && !math.IsInf(v, 0)
}

func (r *run) defs() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *run) result() result {
	res := result{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.fails.total(),
		Metrics:   map[string]metric{},
	}
	for _, d := range r.defs() {
		if v, ok := r.value(d.name); ok {
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return res
}

// report prints the run's metrics, failures and failed checks by name.
func (r *run) report() {
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	jobs := len(r.opValues("job_p50_ms", true))
	var walls, cpus []float64
	for _, p := range r.probes {
		walls, cpus = append(walls, p.wall), append(cpus, p.cpu)
	}
	fmt.Fprintf(r.log, "%s (seed %d, %s): %d attempted, %d failed, %d streams reopened, %d operations, %d jobs timed, speed probe median %.4f s wall, %.4f s CPU (reference %.3f s, %.3f s)\n",
		r.w.name, r.seed, mode, r.attempted, r.fails.total(), r.reopens, len(r.ops), jobs, median(walls), median(cpus), probeRef.wall, probeRef.cpu)
	for _, d := range r.defs() {
		v, ok := r.value(d.name)
		if !ok {
			fmt.Fprintf(r.log, "  %-28s %14s %s (too few samples: %d)\n", d.name, "withheld", d.unit, jobs)
			continue
		}
		if raw, _ := r.valueOf(d.name, true); !r.trace && raw != v {
			fmt.Fprintf(r.log, "  %-28s %14.6g %s (unscaled %.6g)\n", d.name, v, d.unit, raw)
			continue
		}
		fmt.Fprintf(r.log, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for reason, n := range r.fails {
		fmt.Fprintf(r.log, "  FAILED x%d: %s\n", n, reason)
	}
	for _, c := range r.checks {
		fmt.Fprintf(r.log, "  CHECK FAILED: %s\n", c)
	}
}
