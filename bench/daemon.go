package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

const (
	// daemonTaskStride picks the daemon workloads' tasks from the suite.
	daemonTaskStride = 7
	// poolModel is the simulated LLM the candidate pools are drawn from.
	poolModel = "qwq-32b"
)

// jobSet is a daemon workload's input: every job of one batch, with the
// distinct candidate pools they carry.
type jobSet struct {
	Jobs  []job      `json:"jobs"`
	Pools [][]string `json:"pools"`
}

// job is one POST /jobs.
type job struct {
	Task int   `json:"task"` // suite index
	Seed int64 `json:"seed"`
	Pool int   `json:"pool"` // index into jobSet.Pools
	body []byte
}

// submitRequest and event are the parts of the daemon's wire format the
// benchmark speaks.
type submitRequest struct {
	TaskID     string   `json:"task_id"`
	Seed       int64    `json:"seed"`
	Candidates []string `json:"candidates"`
}

type event struct {
	Type        string `json:"type"`
	Rank        int    `json:"rank"`
	Score       int    `json:"score"`
	Fingerprint string `json:"fingerprint"`
	Members     []int  `json:"members"`
	Status      string `json:"status"`
	Error       string `json:"error"`
}

// makeJobs builds n jobs cycling over `distinct` (task, seed, pool)
// triples: tasks every daemonTaskStride-th of the suite, seeds derived from
// the run's seed, and each pool poolSize completions of poolModel.
func (r *run) makeJobs(n, distinct, poolSize int) (*jobSet, error) {
	suite := eval.Suite()
	tasks := strideTasks(daemonTaskStride)
	profile, err := llm.ProfileByName(poolModel)
	if err != nil {
		return nil, err
	}
	set := &jobSet{}
	uniq := make([]job, distinct)
	for d := range uniq {
		task := suite[tasks[d%len(tasks)]]
		seed := r.seed*1_000_000 + int64(d/len(tasks))
		client, err := llm.NewSimClient(profile, seed, []eval.Task{task})
		if err != nil {
			return nil, err
		}
		var pool []string
		for i := 0; i < poolSize; i++ {
			resp, err := client.Generate(r.ctx, llm.GenerateRequest{TaskID: task.ID, Spec: task.Spec, SampleIndex: i})
			if errors.Is(err, llm.ErrTransient) {
				continue // a simulated API hiccup drops the sample, as the daemon does
			}
			if err != nil {
				return nil, err
			}
			pool = append(pool, resp.Code)
		}
		body, err := json.Marshal(submitRequest{TaskID: task.ID, Seed: seed, Candidates: pool})
		if err != nil {
			return nil, err
		}
		set.Pools = append(set.Pools, pool)
		uniq[d] = job{Task: task.Index, Seed: seed, Pool: d, body: body}
	}
	for k := 0; k < n; k++ {
		set.Jobs = append(set.Jobs, uniq[k%distinct])
	}
	return set, nil
}

// runDaemonCold serves jobs that each carry a distinct (task, seed), so
// every fingerprint misses and simulates.
func runDaemonCold(r *run) error {
	return r.daemonWorkload(r.sizes.coldJobs, r.sizes.coldJobs, r.sizes.coldPoolSize)
}

// runDaemonHot serves jobs cycling over a few (task, seed, pool) triples,
// so after the first few every fingerprint is a memo hit.
func runDaemonHot(r *run) error {
	return r.daemonWorkload(r.sizes.hotJobs, r.sizes.hotPools, r.sizes.hotPoolSize)
}

func (r *run) daemonWorkload(n, distinct, poolSize int) error {
	if r.vfocusd == "" {
		return errors.New("no vfocusd binary: pass -vfocusd (bench/run.sh builds one)")
	}
	set, err := r.makeJobs(n, distinct, poolSize)
	if err != nil {
		return fmt.Errorf("generate jobs: %w", err)
	}
	path := filepath.Join(r.workdir, "jobs-"+r.w.name+".json")
	data, err := json.Marshal(set)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	defer os.Remove(path)
	// The clients need only the request bodies; dropping the pools keeps
	// this process's garbage collector from competing with the daemon.
	set.Pools, data = nil, nil
	a := replayArgs{Jobs: path, Workers: r.nproc, Trace: r.trace}
	if r.trace {
		a.Spans = filepath.Join(r.outDir, "spans-"+r.w.name+"-replay.jsonl")
	}
	var ref replayOut
	if _, err := r.child("replay", a, &ref); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if len(ref.Digests) != len(set.Jobs) {
		return fmt.Errorf("replay returned %d digests for %d jobs", len(ref.Digests), len(set.Jobs))
	}
	for k, v := range ref.Layers {
		r.layer(k, v)
	}
	return r.loop(func(traced bool) error { return r.daemonOp(set, &ref, traced) })
}

// daemonOp starts a fresh daemon, serves one batch through a closed loop
// of nproc clients, checks every job against the replay and stops the
// daemon.
func (r *run) daemonOp(set *jobSet, ref *replayOut, traced bool) error {
	d, setup, err := r.startDaemon()
	if err != nil {
		return err
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
		r.spans = rec
	}
	results, wall := r.batch(d.base, set, rec)
	stats, statsErr := d.statsz()
	rssKB, rssErr := peakRSSKB(strconv.Itoa(d.cmd.Process.Pid))
	cpu, stopErr := d.stop()
	switch {
	case stopErr != nil:
		return stopErr
	case statsErr != nil:
		return fmt.Errorf("read /statsz: %w", statsErr)
	case rssErr != nil:
		return rssErr
	}

	r.attempted += len(results)
	var mismatched []int
	var rejects, reopens int
	for k, jr := range results {
		reopens += jr.reopens
		switch {
		case jr.fail != "":
			r.fails.add("%s", jr.fail)
			if jr.rejected {
				rejects++
			}
		case jr.digest != ref.Digests[k]:
			mismatched = append(mismatched, k)
		}
	}
	if len(mismatched) > 0 {
		r.checkFail("%d of %d jobs' clusters differ from the replay's core.RankPool (first: job %d)", len(mismatched), len(results), mismatched[0])
	}
	r.reopens += reopens

	if !traced {
		r.untracedWall = append(r.untracedWall, wall.Seconds())
		var jobMS []float64
		for _, jr := range results {
			if jr.fail == "" {
				jobMS = append(jobMS, millis(jr.latency))
			}
		}
		r.sample(setup, wall, cpu, rssKB, jobMS)
		return nil
	}
	r.tracedWall = append(r.tracedWall, wall.Seconds())
	var submit, first, stream, overhead []float64
	for k, jr := range results {
		if jr.fail != "" {
			continue
		}
		submit = append(submit, millis(jr.submit))
		first = append(first, millis(jr.firstEvent))
		stream = append(stream, millis(jr.stream))
		if len(ref.ComputeMS) == len(results) {
			overhead = append(overhead, millis(jr.latency)-ref.ComputeMS[k])
		}
	}
	r.layer("testbench.fp_sims", float64(stats.FPSims))
	r.layer("testbench.fp_memo_len", float64(stats.FPMemoLen))
	r.layer("serve.submit_p50_ms", median(submit))
	r.layer("serve.first_event_p50_ms", median(first))
	r.layer("serve.stream_p50_ms", median(stream))
	r.layer("serve.overhead_p50_ms", median(overhead))
	r.layer("serve.rejects", float64(rejects))
	r.layer("serve.stream_reopens", float64(reopens))
	return nil
}

// daemon is one vfocusd process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logs   bytes.Buffer
	exited chan error
}

// startDaemon execs vfocusd on a free loopback port and waits until
// /healthz answers; setup is the time from exec to that answer.
func (r *run) startDaemon() (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, setup, err := r.tryStartDaemon()
		if err == nil {
			return d, setup, nil
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("start vfocusd: %w", lastErr)
}

func (r *run) tryStartDaemon() (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), exited: make(chan error, 1)}
	d.cmd = exec.CommandContext(r.ctx, r.vfocusd,
		"-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-workers", strconv.Itoa(r.nproc),
		"-rank-workers", "1",
		"-queue-cap", "16")
	d.cmd.Stdout, d.cmd.Stderr = &d.logs, &d.logs
	health := &http.Client{Timeout: time.Second}
	defer health.CloseIdleConnections()
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	for {
		select {
		case err := <-d.exited:
			return nil, 0, fmt.Errorf("vfocusd exited before answering /healthz (%v): %s", err, d.logs.String())
		default:
		}
		if resp, err := health.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, errors.New("vfocusd did not answer /healthz within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

type statsz struct {
	FPSims    uint64 `json:"fp_sims"`
	FPMemoLen int    `json:"fp_memo_len"`
}

func (d *daemon) statsz() (statsz, error) {
	var s statsz
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(d.base + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// stop sends SIGTERM, waits for a clean drain and returns the process's
// CPU time.
func (d *daemon) stop() (time.Duration, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return 0, fmt.Errorf("vfocusd exited uncleanly (%v): %s", err, d.logs.String())
		}
	case <-time.After(30 * time.Second):
		d.kill()
		return 0, errors.New("vfocusd did not drain within 30s of SIGTERM")
	}
	return cpuTime(d.cmd.ProcessState), nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// jobResult is one job as its client saw it. fail is empty for a job that
// completed; its reason otherwise. reopens counts the times its stream
// ended without a terminal event and was opened again.
type jobResult struct {
	latency, submit, firstEvent, stream time.Duration
	digest                              string
	fail                                string
	rejected                            bool
	reopens                             int
}

// batch serves every job through a closed loop of nproc clients, each
// submitting its next job only once the previous one's stream ended, and
// returns the results in job order and the batch's wall time.
func (r *run) batch(base string, set *jobSet, rec *recorder) ([]jobResult, time.Duration) {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * r.nproc, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()
	results := make([]jobResult, len(set.Jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(results) || r.ctx.Err() != nil {
					return
				}
				results[k] = runJob(r.ctx, client, base, set.Jobs[k].body, rec, "job-"+strconv.Itoa(k))
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// runJob submits one job and streams it to its terminal event. With a
// recorder it records the job's span and its submit and stream children.
func runJob(ctx context.Context, client *http.Client, base string, body []byte, rec *recorder, trace string) (jr jobResult) {
	t0 := time.Now()
	var ts time.Time
	if rec != nil {
		defer func() {
			at := func(t time.Time) int64 { return int64(t.Sub(rec.epoch)) }
			root := rec.add(span{Trace: trace, Name: "serve.job", Start: at(t0), End: rec.now()})
			if jr.submit > 0 {
				rec.add(span{Trace: trace, Parent: root, Name: "serve.submit", Start: at(t0), End: at(t0.Add(jr.submit))})
			}
			if jr.stream > 0 {
				rec.add(span{Trace: trace, Parent: root, Name: "serve.stream", Start: at(ts), End: at(ts.Add(jr.stream))})
			}
		}()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		jr.fail = "submit: " + err.Error()
		return jr
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		jr.fail = "submit transport error: " + err.Error()
		return jr
	}
	var sub struct {
		ID string `json:"id"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		jr.fail = fmt.Sprintf("submit: HTTP %d", resp.StatusCode)
		jr.rejected = true
		return jr
	}
	if decErr != nil {
		jr.fail = "submit: undecodable reply: " + decErr.Error()
		return jr
	}
	jr.submit = time.Since(t0)

	ts = time.Now()
	url := base + "/jobs/" + sub.ID + "/stream"
	var terminal *event
	for open := 1; terminal == nil; open++ {
		if open > maxStreamOpens {
			jr.fail = fmt.Sprintf("stream ended without a terminal event %d times", maxStreamOpens)
			return jr
		}
		if open > 1 {
			jr.reopens++
			time.Sleep(time.Duration(open-1) * time.Millisecond)
		}
		if terminal, jr.fail = streamOnce(ctx, client, url, t0, &jr); jr.fail != "" {
			return jr
		}
	}
	if terminal.Status != "completed" {
		jr.fail = fmt.Sprintf("terminal event %q (status %q): %s", terminal.Type, terminal.Status, terminal.Error)
		return jr
	}
	jr.latency = time.Since(t0)
	jr.stream = time.Since(ts)
	return jr
}

// maxStreamOpens bounds how often a client opens one job's stream. The
// daemon can end a stream just before the job's terminal event is in its
// log (see "Known failures" in README.md). The client then opens the
// stream again, and the daemon replays the job's whole event log.
const maxStreamOpens = 5

// streamOnce reads a job's event stream once, digesting its clusters into
// jr.digest and noting the first event's time since t0. terminal is nil
// when the stream ended cleanly without a terminal event; fail is the
// reason the job failed otherwise.
func streamOnce(ctx context.Context, client *http.Client, url string, t0 time.Time, jr *jobResult) (terminal *event, fail string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, "stream: " + err.Error()
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, "stream transport error: " + err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Sprintf("stream: HTTP %d", resp.StatusCode)
	}
	h := sha256.New()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 16<<20)
	for terminal == nil && sc.Scan() {
		if jr.firstEvent == 0 {
			jr.firstEvent = time.Since(t0)
		}
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, "stream: undecodable event: " + err.Error()
		}
		switch ev.Type {
		case "cluster":
			writeCluster(h, ev.Rank, ev.Score, ev.Fingerprint, ev.Members)
		case "done", "error", "cancelled":
			terminal = &ev
		}
	}
	if terminal == nil && sc.Err() != nil {
		return nil, "stream transport error: " + sc.Err().Error()
	}
	jr.digest = hex.EncodeToString(h.Sum(nil))
	return terminal, ""
}

// writeCluster adds one ranked cluster to a job digest; the daemon's
// stream and the replay digest clusters the same way.
func writeCluster(h io.Writer, rank, score int, fingerprint string, members []int) {
	fmt.Fprintf(h, "%d %d %s %v\n", rank, score, fingerprint, members)
}

// replayArgs configures a replay child.
type replayArgs struct {
	Jobs    string `json:"jobs"` // path of a JSON jobSet
	Workers int    `json:"workers"`
	Trace   bool   `json:"trace,omitempty"`
	Spans   string `json:"spans,omitempty"`
}

// replayOut is what a replay child reports: each job's cluster digest and
// the fingerprint simulations the whole replay performed; traced, also each
// job's validate + stimulus + rank time and the per-layer values.
type replayOut struct {
	Digests   []string           `json:"digests"`
	FPSims    uint64             `json:"fp_sims"`
	ComputeMS []float64          `json:"compute_ms,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// replayChild makes, for every job and at the daemon's concurrency, the
// calls the daemon makes for a job with an explicit candidate pool:
// core.ValidateCandidate per candidate, testbench.RankingCached, then
// core.RankPool anchored on the golden.
func replayChild(a replayArgs, stdout io.Writer) error {
	data, err := os.ReadFile(a.Jobs)
	if err != nil {
		return err
	}
	var set jobSet
	if err := json.Unmarshal(data, &set); err != nil {
		return err
	}
	suite := eval.Suite()
	rec := newRecorder()
	n := len(set.Jobs)
	out := replayOut{Digests: make([]string, n)}
	type jobTimes struct {
		validate, stimulus, rank time.Duration
		candidates, unique       int
		batches                  int
	}
	times := make([]jobTimes, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < max(a.Workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				j := set.Jobs[k]
				task := suite[j.Task]
				trace := "job-" + strconv.Itoa(k)
				root := rec.now()
				cands := set.Pools[j.Pool]
				srcs := make([]*ast.Source, len(cands))
				for i, code := range cands {
					if src, ok := core.ValidateCandidate(code); ok {
						srcs[i] = src
						times[k].candidates++
					}
				}
				tv := rec.now()
				st := testbench.RankingCached(j.Seed+int64(task.Index), 0, task.Ifc)
				ts := rec.now()
				var golden *ast.Source
				if g, gerr := eval.ParseCached(task.Golden); gerr == nil {
					golden = g
				}
				// With one rank worker, batches run one after another on
				// this goroutine, so each ends at an OnBatch call.
				var batches []span
				prev := ts
				pool, err := core.RankPool(context.Background(), srcs, st, core.RankPoolConfig{
					Backend: testbench.BackendCompiled,
					Workers: 1,
					Golden:  golden,
					OnBatch: func(done, total int) {
						times[k].batches++
						if a.Trace {
							now := rec.now()
							batches = append(batches, span{Trace: trace, Name: "core.rank.batch", Start: prev, End: now})
							prev = now
						}
					},
				})
				tr := rec.now()
				if err != nil {
					errs[k] = fmt.Errorf("job %d: %w", k, err)
					continue
				}
				h := sha256.New()
				for ci, cl := range pool.Clusters {
					writeCluster(h, ci+1, cl.Score, fmt.Sprintf("%016x", cl.Fingerprint), cl.Members)
				}
				out.Digests[k] = hex.EncodeToString(h.Sum(nil))
				times[k].validate = time.Duration(tv - root)
				times[k].stimulus = time.Duration(ts - tv)
				times[k].rank = time.Duration(tr - ts)
				times[k].unique = pool.UniqueJobs
				if a.Trace {
					id := rec.add(span{Trace: trace, Name: "replay.job", Start: root, End: tr})
					rec.add(span{Trace: trace, Parent: id, Name: "core.validate", Start: root, End: tv})
					rec.add(span{Trace: trace, Parent: id, Name: "testbench.stimulus", Start: tv, End: ts})
					rankID := rec.add(span{Trace: trace, Parent: id, Name: "core.rank", Start: ts, End: tr})
					for _, b := range batches {
						b.Parent = rankID
						rec.add(b)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	out.FPSims = testbench.ReadStoreStats().Sims
	if a.Trace {
		var validate, stimulus, rank time.Duration
		var cands, validated, unique, batches int
		out.ComputeMS = make([]float64, n)
		for k, t := range times {
			validate += t.validate
			stimulus += t.stimulus
			rank += t.rank
			cands += len(set.Pools[set.Jobs[k].Pool])
			validated += t.candidates
			unique += t.unique
			batches += t.batches
			out.ComputeMS[k] = millis(t.validate + t.stimulus + t.rank)
		}
		m := map[string]float64{
			"core.validate.calls":       float64(cands),
			"core.validate.busy_s":      validate.Seconds(),
			"testbench.stimulus.busy_s": stimulus.Seconds(),
			"core.rank.calls":           float64(n),
			"core.rank.busy_s":          rank.Seconds(),
			"core.rank.candidates":      float64(validated),
			"core.rank.unique_jobs":     float64(unique),
			"core.rank.batches":         float64(batches),
		}
		if validated > 0 {
			m["core.rank.dedup_ratio"] = float64(unique) / float64(validated)
		}
		if unique > 0 {
			m["core.rank.sim_ratio"] = float64(out.FPSims) / float64(unique)
		}
		if out.FPSims > 0 {
			m["sim.us_per_fp_sim"] = float64(rank.Microseconds()) / float64(out.FPSims)
		}
		addRuntimeLayers(m)
		out.Layers = m
		if a.Spans != "" {
			if err := rec.writeJSONL(a.Spans); err != nil {
				return err
			}
		}
	}
	return writeJSONLine(stdout, out)
}
