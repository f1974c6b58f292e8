// Package serve is the HTTP/JSON transport of the vfocusd daemon: it
// accepts (golden, buggy-candidate-pool) ranking jobs, runs them on a
// bounded scheduler (internal/serve/sched), and streams ranked clusters
// back as newline-delimited JSON. The package holds no simulation logic —
// jobs call core.RankPool, and all heavy state (compiled designs,
// schedules, stimulus plans, fingerprint memos) lives in the process-wide
// caches those paths already share, so concurrent jobs against one golden
// automatically share one compiled Design and stimulus stream.
//
// Streaming is slow-client-proof by construction: workers append events to
// a per-job log under a mutex and move on; each streaming handler replays
// the log and follows at its own pace, so a stalled reader blocks only its
// own connection, never a worker slot. A follower that has caught up makes
// the log's wake channel and waits on it; appends nobody waits for make
// none.
//
// The request path allocates per job little more than what the job keeps.
// A submit body is read into a pooled buffer and returned to the pool once
// decoded. The decoder unescapes each candidate into a reused scratch
// buffer and shares the front-end memo's string when that text is resident
// (eval.InternText), as it is for every repeat of a pool, so it copies only
// new candidates. Each stream connection encodes its events with a
// hand-written appender into a pooled buffer, byte-identical to
// json.Encoder and without reflection.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/serve/sched"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// Config sizes a Server.
type Config struct {
	// Workers is the number of concurrent ranking jobs (scheduler slots).
	Workers int
	// QueueCap bounds accepted-but-not-started jobs; past it, submits are
	// rejected with 429 + Retry-After.
	QueueCap int
	// JobTimeout bounds each job's run (scheduler-enforced); 0 = none.
	JobTimeout time.Duration
	// RankWorkers is the per-job simulation worker count passed to
	// core.RankPool (0 = sequential).
	RankWorkers int
	// Model is the default simulated-LLM profile for jobs that ask the
	// server to generate their candidate pool.
	Model string
	// MaxSamples caps server-side candidate generation per job.
	MaxSamples int
	// StoreDesc describes the persistent result store the process runs
	// with ("off" when none); surfaced by /statsz for operators and the
	// warm-restart smoke.
	StoreDesc string
	// NewClient, when non-nil, replaces llm.NewSimClient as the source of
	// candidate-pool generators — the hook that points server-side
	// generation at a real HTTP backend or replayed fixtures
	// (httpclient.Factory).
	NewClient func(model string, seed int64, tasks []eval.Task) (llm.Client, error)
	// LLMStats, when non-nil, is snapshotted into /statsz under "llm" —
	// wire it to the HTTP client factory's stats (wire requests, retries,
	// coalesced calls, breaker trips, …).
	LLMStats func() map[string]int64
	// LLMDesc names the LLM backend for /statsz ("sim" when empty).
	LLMDesc string
}

// finishedCap bounds how many completed job records the server retains for
// late status/stream readers; the oldest finished jobs are evicted first.
const finishedCap = 256

// Server owns the job table and the scheduler. Create with New, mount
// Handler on an http.Server, stop with Shutdown.
type Server struct {
	cfg   Config
	sched *sched.Scheduler
	tasks map[string]eval.Task

	mu       sync.Mutex
	jobs     map[string]*jobRecord
	finished []string // completion order, for bounded retention
	seq      int
}

// storeDesc names the configured persistent store for /statsz.
func (s *Server) storeDesc() string {
	if s.cfg.StoreDesc == "" {
		return "off"
	}
	return s.cfg.StoreDesc
}

// llmDesc names the configured LLM backend for /statsz.
func (s *Server) llmDesc() string {
	if s.cfg.LLMDesc == "" {
		return "sim"
	}
	return s.cfg.LLMDesc
}

// Connection deadlines of the daemon's HTTP server. The submit body, the
// only request body the daemon reads, gets its own read deadline
// (readSubmitBody), so there is no server-wide ReadTimeout. There is no
// WriteTimeout: it would cut long NDJSON streams.
const (
	// ReadHeaderTimeout bounds how long a client may take to send a
	// request's headers.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout bounds how long a keep-alive connection waits for its
	// next request.
	IdleTimeout = 2 * time.Minute
	// SubmitBodyTimeout bounds reading one POST /jobs body.
	SubmitBodyTimeout = 30 * time.Second
)

// The deadlines in force; tests shorten them.
var (
	readHeaderTimeout = ReadHeaderTimeout
	idleTimeout       = IdleTimeout
	submitBodyTimeout = SubmitBodyTimeout
)

// HTTPServer returns an http.Server that serves s.Handler() on addr under
// the daemon's connection deadlines.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// New builds a Server over the benchmark suite.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 8
	}
	if cfg.RankWorkers < 1 {
		cfg.RankWorkers = 1
	}
	if cfg.Model == "" {
		cfg.Model = "deepseek-r1"
	}
	if cfg.MaxSamples < 1 {
		cfg.MaxSamples = 200
	}
	tasks := make(map[string]eval.Task)
	for _, t := range eval.Suite() {
		tasks[t.ID] = t
	}
	return &Server{
		cfg: cfg,
		sched: sched.New(sched.Config{
			Workers:    cfg.Workers,
			QueueCap:   cfg.QueueCap,
			JobTimeout: cfg.JobTimeout,
		}),
		tasks: tasks,
		jobs:  make(map[string]*jobRecord),
	}
}

// Shutdown stops intake and drains in-flight jobs for up to drain before
// force-cancelling them. It returns when every worker has exited.
func (s *Server) Shutdown(drain time.Duration) {
	s.sched.Shutdown(drain)
}

// SubmitRequest is the POST /jobs body. TaskID names the golden design
// (and its interface) from the benchmark suite. The buggy candidate pool
// is either supplied verbatim in Candidates or generated server-side from
// the simulated LLM (Samples completions of Model at Seed). The json tags
// name the body's keys; handleSubmit decodes it with decodeSubmit, which
// accepts only those keys, spelled exactly.
type SubmitRequest struct {
	ID         string   `json:"id,omitempty"`
	TaskID     string   `json:"task_id"`
	Candidates []string `json:"candidates,omitempty"`
	Samples    int      `json:"samples,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Model      string   `json:"model,omitempty"`
}

// Event is one NDJSON line of a job's stream.
//
//	{"type":"progress","done":3,"total":7}
//	{"type":"cluster","rank":1,"score":12,"fingerprint":"…","members":[0,4],"code":"…"}
//	{"type":"done","status":"completed"}   (or "cancelled" / "failed" with error)
type Event struct {
	Type        string `json:"type"`
	Done        int    `json:"done,omitempty"`
	Total       int    `json:"total,omitempty"`
	Rank        int    `json:"rank,omitempty"` // 1-based
	Score       int    `json:"score,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Members     []int  `json:"members,omitempty"`
	Code        string `json:"code,omitempty"`
	Status      string `json:"status,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Job lifecycle states.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCompleted = "completed"
	StatusCancelled = "cancelled"
	StatusFailed    = "failed"
)

// jobRecord is the per-job event log and status. wake is a broadcast
// channel made only when a follower has read the whole log and is about to
// block; the next append closes it and clears it, and the followers re-check
// the log. Appends that no follower waits for allocate no channel.
type jobRecord struct {
	id string

	mu     sync.Mutex
	status string
	errMsg string
	events []Event
	wake   chan struct{}
	final  bool
}

func newJobRecord(id string) *jobRecord {
	return &jobRecord{id: id, status: StatusQueued}
}

func (j *jobRecord) append(ev Event) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
}

// appendLocked appends ev and wakes followers. Callers hold j.mu.
func (j *jobRecord) appendLocked(ev Event) {
	j.events = append(j.events, ev)
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// reserve makes room in the log for n more events, so a job that knows how
// many it will append grows the log once.
func (j *jobRecord) reserve(n int) {
	j.mu.Lock()
	j.events = slices.Grow(j.events, n)
	j.mu.Unlock()
}

func (j *jobRecord) setStatus(status string) {
	j.mu.Lock()
	j.status = status
	j.mu.Unlock()
}

// finish records the terminal state and appends the terminal event.
func (j *jobRecord) finish(err error) {
	status := StatusCompleted
	msg := ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = StatusCancelled
		msg = err.Error()
	default:
		status = StatusFailed
		msg = err.Error()
	}
	ev := Event{Type: "done", Status: status}
	if status == StatusFailed {
		ev.Type = "error"
		ev.Error = msg
	}
	if status == StatusCancelled {
		ev.Type = "cancelled"
		ev.Error = msg
	}
	// One critical section: a stream that sees final must also see the
	// terminal event, or a caught-up follower could return without it.
	j.mu.Lock()
	j.status = status
	j.errMsg = msg
	j.final = true
	j.appendLocked(ev)
	j.mu.Unlock()
}

// snapshot returns the events at or after index i. When there are none and
// the job is not final, it also returns the wake channel to wait on, making
// it if no follower has yet.
func (j *jobRecord) snapshot(i int) (evs []Event, wake <-chan struct{}, final bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.events) {
		return j.events[i:len(j.events):len(j.events)], nil, j.final
	}
	if !j.final {
		if j.wake == nil {
			j.wake = make(chan struct{})
		}
		wake = j.wake
	}
	return nil, wake, j.final
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// /statsz exposes the process-wide simulation/result-store counters:
	// fp_sims counts fingerprint simulations actually performed, so a
	// fully store-warm process reports zero — the warm-restart smoke and
	// capacity dashboards key off exactly that.
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		stats := testbench.ReadStoreStats()
		w.Header().Set("Content-Type", "application/json")
		body := map[string]any{
			"fp_sims":              stats.Sims,
			"store_hits":           stats.Hits,
			"store_misses":         stats.Misses,
			"store_puts":           stats.Puts,
			"store_put_fails":      stats.PutFails,
			"remote_retries":       stats.RemoteRetries,
			"remote_breaker_trips": stats.RemoteBreakerTrips,
			"remote_fast_fails":    stats.RemoteFastFails,
			"fp_memo_len":          testbench.FPMemoLen(),
			"store":                s.storeDesc(),
			"llm_backend":          s.llmDesc(),
		}
		if s.cfg.LLMStats != nil {
			body["llm"] = s.cfg.LLMStats()
		}
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleSubmit(w, r)
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
		id, sub, _ := strings.Cut(rest, "/")
		if id == "" {
			http.NotFound(w, r)
			return
		}
		switch {
		case sub == "" && r.Method == http.MethodGet:
			s.handleStatus(w, r, id)
		case sub == "stream" && r.Method == http.MethodGet:
			s.handleStream(w, r, id)
		case sub == "cancel" && r.Method == http.MethodPost:
			s.handleCancel(w, r, id)
		default:
			http.NotFound(w, r)
		}
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readSubmitBody(w, r)
	if errors.Is(err, errBodyTooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		http.Error(w, err.Error(), http.StatusRequestTimeout)
		return
	}
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	req, err := decodeSubmit(body.bytes)
	body.release()
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	task, ok := s.tasks[req.TaskID]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown task_id %q", req.TaskID), http.StatusBadRequest)
		return
	}
	if len(req.Candidates) == 0 {
		if req.Samples <= 0 {
			req.Samples = 20
		}
		if req.Samples > s.cfg.MaxSamples {
			req.Samples = s.cfg.MaxSamples
		}
	}

	s.mu.Lock()
	id := req.ID
	if id == "" {
		s.seq++
		id = "job-" + strconv.Itoa(s.seq)
	}
	if _, dup := s.jobs[id]; dup {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("duplicate job id %q", id), http.StatusConflict)
		return
	}
	rec := newJobRecord(id)
	s.jobs[id] = rec
	s.mu.Unlock()

	err = s.sched.Submit(sched.Job{
		ID: id,
		Run: func(ctx context.Context) error {
			rec.setStatus(StatusRunning)
			return s.runJob(ctx, rec, req, task)
		},
		Done: func(err error) {
			rec.finish(err)
			s.retire(id)
		},
	})
	if err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		switch {
		case errors.Is(err, sched.ErrQueueFull):
			queued, running := s.sched.Stats()
			retry := 1 + (queued+running)/s.cfg.Workers
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			http.Error(w, "queue full", http.StatusTooManyRequests)
		case errors.Is(err, sched.ErrDraining):
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	buf := getBuf()
	*buf = appendAccepted((*buf)[:0], id)
	w.Write(*buf)
	putBuf(buf)
}

// retire moves a finished job into the bounded retention window.
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > finishedCap {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old)
	}
}

func (s *Server) lookup(id string) *jobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, id string) {
	rec := s.lookup(id)
	if rec == nil {
		http.NotFound(w, r)
		return
	}
	rec.mu.Lock()
	resp := map[string]any{"id": rec.id, "status": rec.status, "events": len(rec.events)}
	if rec.errMsg != "" {
		resp["error"] = rec.errMsg
	}
	rec.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, id string) {
	rec := s.lookup(id)
	if rec == nil {
		http.NotFound(w, r)
		return
	}
	found := s.sched.Cancel(id)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"id": id, "cancelled": found})
}

// handleStream replays the job's event log as NDJSON and follows until the
// job reaches a terminal event or the client goes away. Each connection
// paces itself; a slow reader never blocks the job. Each event is encoded
// by appendEvent into one pooled buffer per connection.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, id string) {
	rec := s.lookup(id)
	if rec == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	buf := getBuf()
	defer putBuf(buf)
	next := 0
	for {
		evs, wake, final := rec.snapshot(next)
		for i := range evs {
			*buf = appendEvent((*buf)[:0], &evs[i])
			if _, err := w.Write(*buf); err != nil {
				return // client gone
			}
		}
		next += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if final && len(evs) == 0 {
			return
		}
		if len(evs) > 0 {
			continue // drain before blocking
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// runJob executes one ranking job on a scheduler worker: build (or accept)
// the candidate pool, rank it under the task's cached stimulus, and stream
// progress + ranked clusters into the job's event log.
func (s *Server) runJob(ctx context.Context, rec *jobRecord, req SubmitRequest, task eval.Task) error {
	codes, srcs, err := s.candidatePool(ctx, req, task)
	if err != nil {
		return err
	}
	// RankingCached is keyed by (seed, imperfection, interface): every job
	// naming the same task and seed shares one stimulus and one schedule.
	st := testbench.RankingCached(req.Seed+int64(task.Index), 0, task.Ifc)
	pool, err := core.RankPool(ctx, srcs, st, core.RankPoolConfig{
		Backend: testbench.BackendCompiled,
		Workers: s.cfg.RankWorkers,
		OnBatch: func(done, total int) {
			rec.append(Event{Type: "progress", Done: done, Total: total})
		},
	})
	if err != nil {
		return err
	}
	rec.reserve(len(pool.Clusters) + 1) // the clusters and the terminal event
	for ci := range pool.Clusters {
		cl := &pool.Clusters[ci]
		rec.append(Event{
			Type:        "cluster",
			Rank:        ci + 1,
			Score:       cl.Score,
			Fingerprint: fmt.Sprintf("%016x", cl.Fingerprint),
			Members:     cl.Members,
			Code:        codes[cl.Members[0]],
		})
	}
	return nil
}

// candidatePool resolves the job's buggy-candidate pool: the request's own
// candidates when present (invalid ones stay in the pool as ineligible nil
// sources, keeping member indices aligned with the submission), otherwise
// Samples completions drawn from the simulated LLM.
func (s *Server) candidatePool(ctx context.Context, req SubmitRequest, task eval.Task) ([]string, []*ast.Source, error) {
	if len(req.Candidates) > 0 {
		srcs := make([]*ast.Source, len(req.Candidates))
		for i, code := range req.Candidates {
			if src, ok := core.ValidateCandidate(code); ok {
				srcs[i] = src
			}
		}
		return req.Candidates, srcs, nil
	}
	model := req.Model
	if model == "" {
		model = s.cfg.Model
	}
	profile, err := llm.ProfileByName(model)
	if err != nil {
		return nil, nil, err
	}
	var client llm.Client
	if s.cfg.NewClient != nil {
		client, err = s.cfg.NewClient(profile.Name, req.Seed, []eval.Task{task})
	} else {
		client, err = llm.NewSimClient(profile, req.Seed, []eval.Task{task})
	}
	if err != nil {
		return nil, nil, err
	}
	codes := make([]string, 0, req.Samples)
	srcs := make([]*ast.Source, 0, req.Samples)
	for i := 0; i < req.Samples; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		resp, gerr := client.Generate(ctx, llm.GenerateRequest{
			TaskID:      task.ID,
			Spec:        task.Spec,
			SampleIndex: i,
		})
		if gerr != nil {
			if errors.Is(gerr, llm.ErrTransient) {
				continue // simulated API hiccup: skip the sample
			}
			return nil, nil, gerr
		}
		codes = append(codes, resp.Code)
		if src, ok := core.ValidateCandidate(resp.Code); ok {
			srcs = append(srcs, src)
		} else {
			srcs = append(srcs, nil)
		}
	}
	return codes, srcs, nil
}
