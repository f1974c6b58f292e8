package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/serve/faultinject"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

const gateTaskID = "cmb_gate_00_and2"

// gateCandidates is a hand-built buggy pool for the AND-gate task: golden,
// OR mutant, XOR mutant, a duplicate of the OR mutant, and one syntactically
// invalid submission that must stay index-aligned but never simulate.
func gateCandidates() []string {
	mk := func(expr string) string {
		return "module top_module(\n    input a,\n    input b,\n    output y\n);\n    assign y = " + expr + ";\nendmodule\n"
	}
	return []string{mk("a & b"), mk("a | b"), mk("a ^ b"), mk("a | b"), "module broken("}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{}
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		ts.Close()
		client.CloseIdleConnections()
	})
	return srv, ts, client
}

func submitJob(t *testing.T, client *http.Client, base string, req SubmitRequest) (string, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		// Drain and close so rejections don't pin the connection; callers
		// only look at the status line and headers.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return "", resp
	}
	var acc struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return acc.ID, resp
}

// streamEvents reads the job's whole NDJSON stream to its terminal event.
func streamEvents(t *testing.T, client *http.Client, base, id string) []Event {
	t.Helper()
	resp, err := client.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: HTTP %d", id, resp.StatusCode)
	}
	var evs []Event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return evs
			}
			t.Fatalf("stream %s: %v", id, err)
		}
		evs = append(evs, ev)
	}
}

func jobStatus(t *testing.T, client *http.Client, base, id string) string {
	t.Helper()
	resp, err := client.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Status
}

func terminal(evs []Event) *Event {
	if len(evs) == 0 {
		return nil
	}
	return &evs[len(evs)-1]
}

func clusterEvents(evs []Event) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Type == "cluster" {
			out = append(out, ev)
		}
	}
	return out
}

// TestSubmitStreamComplete drives the happy path end to end: submit an
// explicit candidate pool, stream it, and check the ranked clusters against
// a direct core.RankPool computation of the same job.
func TestSubmitStreamComplete(t *testing.T) {
	_, ts, client := newTestServer(t, Config{Workers: 2, QueueCap: 4, RankWorkers: 2})

	id, resp := submitJob(t, client, ts.URL, SubmitRequest{
		ID: "happy", TaskID: gateTaskID, Candidates: gateCandidates(), Seed: 7,
	})
	if id == "" {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	evs := streamEvents(t, client, ts.URL, id)
	fin := terminal(evs)
	if fin == nil || fin.Type != "done" || fin.Status != StatusCompleted {
		t.Fatalf("terminal event = %+v, want done/completed", fin)
	}
	if got := jobStatus(t, client, ts.URL, id); got != StatusCompleted {
		t.Fatalf("status = %q, want completed", got)
	}

	// Progress must be monotonic and end at done==total.
	last, total := 0, 0
	for _, ev := range evs {
		if ev.Type != "progress" {
			continue
		}
		if ev.Done <= last {
			t.Fatalf("progress not monotonic: %+v after done=%d", ev, last)
		}
		last, total = ev.Done, ev.Total
	}
	if last == 0 || last != total {
		t.Fatalf("progress ended at %d/%d", last, total)
	}

	// Clusters must match a direct rank of the same pool: {OR, OR-dup}
	// first, then the two singletons; the invalid candidate appears nowhere.
	want := directClusters(t, 7, gateCandidates())
	got := clusterEvents(evs)
	if len(got) != len(want) {
		t.Fatalf("cluster events: %d, want %d", len(got), len(want))
	}
	for i, cl := range want {
		ev := got[i]
		if ev.Rank != i+1 || ev.Score != cl.Score ||
			ev.Fingerprint != fmt.Sprintf("%016x", cl.Fingerprint) ||
			!reflect.DeepEqual(ev.Members, cl.Members) {
			t.Fatalf("cluster %d = %+v, want %+v", i, ev, cl)
		}
		if ev.Code == "" {
			t.Fatalf("cluster %d missing representative code", i)
		}
	}
	for _, ev := range got {
		for _, m := range ev.Members {
			if m == 4 {
				t.Fatal("invalid candidate clustered")
			}
		}
	}
}

// directClusters ranks the pool in-process, bypassing the daemon — the
// referee the streamed clusters must agree with.
func directClusters(t *testing.T, seed int64, codes []string) []core.Cluster {
	t.Helper()
	var task eval.Task
	for _, tk := range eval.Suite() {
		if tk.ID == gateTaskID {
			task = tk
		}
	}
	srcs := make([]*ast.Source, len(codes))
	for i, code := range codes {
		if src, ok := core.ValidateCandidate(code); ok {
			srcs[i] = src
		}
	}
	st := testbench.RankingCached(seed+int64(task.Index), 0, task.Ifc)
	golden, err := eval.ParseCached(task.Golden)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.RankPool(t.Context(), srcs, st, core.RankPoolConfig{
		Backend: testbench.BackendCompiled, Golden: golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool.Clusters
}

// TestGeneratedPool lets the server draw its candidate pool from the
// simulated LLM and checks the job completes with at least one cluster.
func TestGeneratedPool(t *testing.T) {
	_, ts, client := newTestServer(t, Config{Workers: 1, QueueCap: 2, RankWorkers: 2})
	id, resp := submitJob(t, client, ts.URL, SubmitRequest{TaskID: gateTaskID, Samples: 8, Seed: 3})
	if id == "" {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	evs := streamEvents(t, client, ts.URL, id)
	if fin := terminal(evs); fin == nil || fin.Status != StatusCompleted {
		t.Fatalf("terminal = %+v, want completed", terminal(evs))
	}
	if len(clusterEvents(evs)) == 0 {
		t.Fatal("generated pool produced no clusters")
	}
}

// TestSubmitRejections covers the submit-time error surface: unknown task
// (400), duplicate live ID (409), and bad JSON (400).
func TestSubmitRejections(t *testing.T) {
	_, ts, client := newTestServer(t, Config{Workers: 1, QueueCap: 4})

	if _, resp := submitJob(t, client, ts.URL, SubmitRequest{TaskID: "no_such_task"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown task: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: HTTP %d, want 400", resp.StatusCode)
	}

	// Hold the only worker inside the fault hook so "dup" stays live.
	defer faultinject.Reset()
	release := make(chan struct{})
	entered := make(chan struct{})
	faultinject.Arm(faultinject.PointSchedRun, "dup", 1, func() {
		close(entered)
		<-release
	})
	if id, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: "dup", TaskID: gateTaskID, Candidates: gateCandidates()}); id == "" {
		t.Fatalf("first submit rejected: HTTP %d", resp.StatusCode)
	}
	<-entered
	if _, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: "dup", TaskID: gateTaskID, Candidates: gateCandidates()}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate id: HTTP %d, want 409", resp.StatusCode)
	}
	close(release)
	if fin := terminal(streamEvents(t, client, ts.URL, "dup")); fin == nil || fin.Status != StatusCompleted {
		t.Fatalf("held job terminal = %+v", fin)
	}
}

// TestOverloadReturns429 saturates one worker slot and a one-deep queue,
// then asserts the next submit gets 429 with a positive Retry-After and no
// job record left behind; after the backlog drains, the same submit is
// accepted.
func TestOverloadReturns429(t *testing.T) {
	defer faultinject.Reset()
	_, ts, client := newTestServer(t, Config{Workers: 1, QueueCap: 1})

	release := make(chan struct{})
	entered := make(chan struct{})
	faultinject.Arm(faultinject.PointSchedRun, "hog", 1, func() {
		close(entered)
		<-release
	})
	if id, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: "hog", TaskID: gateTaskID, Candidates: gateCandidates()}); id == "" {
		t.Fatalf("hog rejected: HTTP %d", resp.StatusCode)
	}
	<-entered // hog occupies the worker slot
	if id, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: "queued", TaskID: gateTaskID, Candidates: gateCandidates()}); id == "" {
		t.Fatalf("queued rejected: HTTP %d", resp.StatusCode)
	}

	_, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: "overflow", TaskID: gateTaskID, Candidates: gateCandidates()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: HTTP %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want positive integer", resp.Header.Get("Retry-After"))
	}
	// The rejected job must leave no trace.
	sresp, err := client.Get(ts.URL + "/jobs/overflow")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected job status: HTTP %d, want 404", sresp.StatusCode)
	}

	close(release)
	for _, id := range []string{"hog", "queued"} {
		if fin := terminal(streamEvents(t, client, ts.URL, id)); fin == nil || fin.Status != StatusCompleted {
			t.Fatalf("%s terminal = %+v", id, fin)
		}
	}
	if id, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: "overflow", TaskID: gateTaskID, Candidates: gateCandidates()}); id == "" {
		t.Fatalf("post-drain resubmit rejected: HTTP %d", resp.StatusCode)
	}
	if fin := terminal(streamEvents(t, client, ts.URL, "overflow")); fin == nil || fin.Status != StatusCompleted {
		t.Fatalf("post-drain overflow terminal = %+v", fin)
	}
}

// TestCancelMidFlightThenRerunBitIdentical is the cancellation drill:
// cancel a job between rank units through the real HTTP endpoint, observe
// the cancelled terminal event, then resubmit the identical job twice — the
// cancelled run must have left every process-wide cache reusable, so the
// re-runs stream bit-identical cluster sets that also match a direct
// in-process rank.
func TestCancelMidFlightThenRerunBitIdentical(t *testing.T) {
	defer faultinject.Reset()
	_, ts, client := newTestServer(t, Config{Workers: 1, QueueCap: 4, RankWorkers: 1})

	// Sixteen distinct designs: two rank units of eight.
	mk := func(expr string) string {
		return "module top_module(\n    input a,\n    input b,\n    output y\n);\n    assign y = " + expr + ";\nendmodule\n"
	}
	var pool []string
	for _, expr := range []string{
		"a & b", "a | b", "a ^ b", "~(a & b)", "~(a | b)", "~(a ^ b)", "a", "b",
		"~a", "~b", "a & ~b", "~a & b", "a | ~b", "~a | b", "1'b0", "1'b1",
	} {
		pool = append(pool, mk(expr))
	}
	req := SubmitRequest{TaskID: gateTaskID, Candidates: pool, Seed: 99}

	// The second rank unit fires the hook, which cancels the job through
	// the daemon's own endpoint — the full cancel-by-ID path, mid-compute.
	faultinject.Arm(faultinject.PointRankBatch, "", 2, func() {
		resp, err := client.Post(ts.URL+"/jobs/victim/cancel", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
	})
	vreq := req
	vreq.ID = "victim"
	if id, resp := submitJob(t, client, ts.URL, vreq); id == "" {
		t.Fatalf("victim rejected: HTTP %d", resp.StatusCode)
	}
	evs := streamEvents(t, client, ts.URL, "victim")
	fin := terminal(evs)
	if fin == nil || fin.Type != "cancelled" || fin.Status != StatusCancelled {
		t.Fatalf("victim terminal = %+v, want cancelled", fin)
	}
	if len(clusterEvents(evs)) != 0 {
		t.Fatal("cancelled job streamed clusters")
	}
	faultinject.Reset()

	var runs [][]Event
	for i := 0; i < 2; i++ {
		rreq := req
		rreq.ID = fmt.Sprintf("rerun-%d", i)
		if id, resp := submitJob(t, client, ts.URL, rreq); id == "" {
			t.Fatalf("rerun-%d rejected: HTTP %d", i, resp.StatusCode)
		}
		revs := streamEvents(t, client, ts.URL, rreq.ID)
		if fin := terminal(revs); fin == nil || fin.Status != StatusCompleted {
			t.Fatalf("rerun-%d terminal = %+v", i, fin)
		}
		runs = append(runs, clusterEvents(revs))
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("post-cancel re-runs diverged:\n%+v\nvs\n%+v", runs[0], runs[1])
	}
	want := directClusters(t, 99, pool)
	if len(runs[0]) != len(want) {
		t.Fatalf("clusters after cancel: %d, want %d", len(runs[0]), len(want))
	}
	for i, cl := range want {
		if runs[0][i].Fingerprint != fmt.Sprintf("%016x", cl.Fingerprint) ||
			!reflect.DeepEqual(runs[0][i].Members, cl.Members) {
			t.Fatalf("cluster %d = %+v, want %+v", i, runs[0][i], cl)
		}
	}
}

// TestSlowClientDoesNotBlockJob opens a stream and refuses to read it while
// the job runs; the job must complete regardless (the event log decouples
// workers from readers), and a late full read must still replay everything.
func TestSlowClientDoesNotBlockJob(t *testing.T) {
	_, ts, client := newTestServer(t, Config{Workers: 1, QueueCap: 2})

	id, resp := submitJob(t, client, ts.URL, SubmitRequest{TaskID: gateTaskID, Candidates: gateCandidates(), Seed: 5})
	if id == "" {
		t.Fatalf("submit rejected: HTTP %d", resp.StatusCode)
	}
	// Open the stream on its own connection and do not read from it.
	slow, err := (&http.Client{}).Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for jobStatus(t, client, ts.URL, id) != StatusCompleted {
		if time.Now().After(deadline) {
			t.Fatal("job did not complete while a slow client held a stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The stalled stream, read now, still replays the full log.
	var evs []Event
	dec := json.NewDecoder(slow.Body)
	for {
		var ev Event
		if derr := dec.Decode(&ev); derr != nil {
			break
		}
		evs = append(evs, ev)
	}
	if fin := terminal(evs); fin == nil || fin.Status != StatusCompleted {
		t.Fatalf("slow stream terminal = %+v, want completed", fin)
	}
	if len(clusterEvents(evs)) == 0 {
		t.Fatal("slow stream missed the cluster events")
	}
}

// TestShutdownMidDrainForceCancels holds a job mid-compute, shuts the
// server down with a tiny drain window, and asserts: new submits get 503,
// the stuck job's stream terminates with a cancelled event, Shutdown
// returns, and no goroutines leak from the whole exercise.
func TestShutdownMidDrainForceCancels(t *testing.T) {
	defer faultinject.Reset()
	before := runtime.NumGoroutine()

	// A private transport so the leak check below can retire this test's own
	// keep-alive connections (the shared DefaultTransport holds conns from
	// other tests that predate the baseline).
	tr := &http.Transport{}
	srv := New(Config{Workers: 1, QueueCap: 2, RankWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: tr}

	entered := make(chan struct{})
	hold := make(chan struct{})
	faultinject.Arm(faultinject.PointRankBatch, "", 1, func() {
		close(entered)
		<-hold
	})
	if id, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: "stuck", TaskID: gateTaskID, Candidates: gateCandidates()}); id == "" {
		t.Fatalf("stuck rejected: HTTP %d", resp.StatusCode)
	}
	<-entered

	done := make(chan struct{})
	go func() {
		srv.Shutdown(10 * time.Millisecond)
		close(done)
	}()
	// Give the drain deadline time to expire and force-cancel the job's
	// context, then let the worker out of the hook; it must observe the
	// cancellation at the batch boundary.
	time.Sleep(200 * time.Millisecond)
	if _, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: "late", TaskID: gateTaskID, Candidates: gateCandidates()}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: HTTP %d, want 503", resp.StatusCode)
	}
	close(hold)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung after force-cancel")
	}
	if fin := terminal(streamEvents(t, client, ts.URL, "stuck")); fin == nil || fin.Type != "cancelled" || fin.Status != StatusCancelled {
		t.Fatalf("stuck terminal = %+v, want cancelled", fin)
	}

	ts.Close()
	// Zero leaked goroutines: everything above (workers, streams, HTTP
	// plumbing) must wind down to the pre-test count. Idle-closing inside
	// the loop catches connections that go idle after the first sweep.
	deadline := time.Now().Add(10 * time.Second)
	for {
		tr.CloseIdleConnections()
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
