package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/serve/faultinject"
)

// hotBody is a submit body shaped like the benchmark's daemon-hot jobs: 120
// qwq-32b completions for one task, marshalled by encoding/json.
func hotBody(tb testing.TB) []byte {
	tb.Helper()
	task := eval.Suite()[0]
	profile, err := llm.ProfileByName("qwq-32b")
	if err != nil {
		tb.Fatal(err)
	}
	const seed = 1_000_000
	client, err := llm.NewSimClient(profile, seed, []eval.Task{task})
	if err != nil {
		tb.Fatal(err)
	}
	var pool []string
	for i := 0; i < 120; i++ {
		resp, err := client.Generate(tb.Context(), llm.GenerateRequest{TaskID: task.ID, Spec: task.Spec, SampleIndex: i})
		if errors.Is(err, llm.ErrTransient) {
			continue
		}
		if err != nil {
			tb.Fatal(err)
		}
		pool = append(pool, resp.Code)
	}
	body, err := json.Marshal(SubmitRequest{TaskID: task.ID, Seed: seed, Candidates: pool})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzDecodeSubmit holds decodeSubmit to encoding/json: it never panics,
// and whatever it accepts encoding/json also accepts and decodes to a
// reflect.DeepEqual request (nil versus empty candidates included). So
// anything encoding/json rejects, decodeSubmit rejects too. decodeSubmit may
// reject more: unknown, duplicate or wrong-case keys, invalid UTF-8 and
// lone surrogates, all of which encoding/json tolerates. The first decode
// interns nothing and reads a copy of the body that is overwritten before
// the comparison, so no decoded string may alias the body; a second decode
// after every candidate has been made resident in the front-end memo must
// give an equal request.
func FuzzDecodeSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		scratch := bytes.Clone(data)
		got, err := decodeSubmitIntern(scratch, nil)
		for i := range scratch {
			scratch[i] = 0xff
		}
		if err != nil {
			return
		}
		var want SubmitRequest
		if jerr := json.Unmarshal(data, &want); jerr != nil {
			t.Fatalf("decodeSubmit accepted %q, encoding/json rejects it: %v", data, jerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeSubmit(%q) = %#v, encoding/json gives %#v", data, got, want)
		}
		for _, c := range want.Candidates {
			eval.ParseCached(c)
		}
		resident, err := decodeSubmit(data)
		if err != nil || !reflect.DeepEqual(resident, want) {
			t.Fatalf("decodeSubmit(%q) with its candidates resident = %#v, %v; want %#v", data, resident, err, want)
		}
	})
}

// TestDecodeSubmit checks accepted bodies against encoding/json and that
// every rejection names its problem.
func TestDecodeSubmit(t *testing.T) {
	accept := []string{
		string(hotBody(t)),
		` {"task_id":"t","candidates":[]} `,
		`{"id":null,"task_id":"t","candidates":null,"samples":null,"seed":null,"model":null}`,
		`{"task_id":"a\nb\"c\\d\/é😀\u0000","seed":-0,"samples":3}`,
		`{"task_id":"é","seed":-9223372036854775808,"model":"qwq-32b","id":"x"}`,
		`{}`,
	}
	for _, body := range accept {
		got, err := decodeSubmit([]byte(body))
		if err != nil {
			t.Fatalf("decodeSubmit(%.80q): %v", body, err)
		}
		var want SubmitRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeSubmit(%.80q) = %#v, want %#v", body, got, want)
		}
	}

	reject := []struct{ body, want string }{
		{``, "empty body"},
		{` `, "unexpected end of body"},
		{`[]`, "want '{'"},
		{`{"task_id":"t","candidate":["x"]}`, `unknown key "candidate"`},
		{`{"Task_ID":"t"}`, `unknown key "Task_ID"`},
		{`{"task_id":"t","gang_size":8}`, `unknown key "gang_size"`},
		{`{"task_id":"t","task_id":"u"}`, `duplicate key "task_id"`},
		{`{"task_id":"t"} x`, "trailing data"},
		{`{"task_id":"t"}{}`, "trailing data"},
		{`{"task_id":"\ud800"}`, `lone surrogate \ud800`},
		{`{"task_id":"\udc00\ud800"}`, `lone surrogate \udc00`},
		{"{\"task_id\":\"\xff\"}", "invalid UTF-8"},
		{"{\"task_id\":\"a\nb\"}", "raw control byte"},
		{`{"task_id":"\x"}`, "invalid escape"},
		{`{"task_id":"\u12"}`, `malformed \u escape`},
		{`{"task_id":"t`, "unterminated string"},
		{`{"task_id":5}`, "want task_id as a string"},
		{`{"candidates":"x"}`, "want candidates as an array"},
		{`{"candidates":["x",null]}`, "want candidates as a string"},
		{`{"seed":1e3}`, "not a fraction or exponent"},
		{`{"seed":1.0}`, "not a fraction or exponent"},
		{`{"seed":01}`, "leading zero"},
		{`{"seed":-}`, "want an integer"},
		{`{"seed":9223372036854775808}`, "does not fit a 64-bit integer"},
		{`{"seed":"1"}`, "want an integer"},
		{`{"seed":1,}`, "want a key"},
		{`{"seed" 1}`, "want ':'"},
		{`{"seed":1 "id":"x"}`, "want ',' or '}'"},
	}
	for _, tc := range reject {
		_, err := decodeSubmit([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decodeSubmit(%q) = %v, want an error containing %q", tc.body, err, tc.want)
		}
	}
}

// postRaw posts body to /jobs and returns the status and response text.
func postRaw(t *testing.T, client *http.Client, base, body string) (int, string) {
	t.Helper()
	resp, err := client.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(msg)
}

// TestSubmitStrictKeys: a misspelled, duplicated or wrong-case key, or the
// retired gang_size, is a 400 naming the key, never a job that silently
// ranks a server-generated pool in place of the one submitted.
func TestSubmitStrictKeys(t *testing.T) {
	_, ts, client := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	pool, err := json.Marshal(gateCandidates())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ body, want string }{
		{`{"task_id":"` + gateTaskID + `","candidate":` + string(pool) + `}`, `unknown key "candidate"`},
		{`{"task_id":"` + gateTaskID + `","candidates":` + string(pool) + `,"candidates":[]}`, `duplicate key "candidates"`},
		{`{"Task_ID":"` + gateTaskID + `","candidates":` + string(pool) + `}`, `unknown key "Task_ID"`},
		{`{"task_id":"` + gateTaskID + `","candidates":` + string(pool) + `,"gang_size":2}`, `unknown key "gang_size"`},
	} {
		code, msg := postRaw(t, client, ts.URL, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("submit %.60q: HTTP %d %q, want 400 naming %s", tc.body, code, msg, tc.want)
		}
	}
}

// TestSubmitBodyLimit413 is the oversized-body drill: a declared 64 MiB
// Content-Length gets 413 before the server reads or buffers a byte of it,
// a chunked body that runs past the limit gets 413 once it does, and a
// well-formed job submitted alongside completes with the clusters a direct
// rank gives.
func TestSubmitBodyLimit413(t *testing.T) {
	defer faultinject.Reset()
	_, ts, client := newTestServer(t, Config{Workers: 1, QueueCap: 4, RankWorkers: 1})

	// Hold the well-formed job on its worker until the hostile bodies are
	// refused, so both are in flight at once.
	release := make(chan struct{})
	entered := make(chan struct{})
	faultinject.Arm(faultinject.PointSchedRun, "good", 1, func() {
		close(entered)
		<-release
	})
	good := SubmitRequest{ID: "good", TaskID: gateTaskID, Candidates: gateCandidates(), Seed: 7}
	if id, resp := submitJob(t, client, ts.URL, good); id == "" {
		t.Fatalf("good job rejected: HTTP %d", resp.StatusCode)
	}
	<-entered

	// Declared over the limit: send the headers only. The 413 must arrive
	// although no body byte is ever written.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(conn, "POST /jobs HTTP/1.1\r\nHost: vfocusd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", 64<<20)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "67108864 bytes declared") {
		t.Fatalf("declared 64 MiB: HTTP %d %q, want 413", resp.StatusCode, msg)
	}

	// Unknown length (chunked), running past the limit.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", io.MultiReader(
		strings.NewReader(`{"task_id":"`+gateTaskID+`","id":"`),
		io.LimitReader(repeatByte('x'), 64<<20),
	))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	cresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked 64 MiB: HTTP %d, want 413", cresp.StatusCode)
	}

	// A chunked body within the limit is still accepted.
	good.ID = "chunked"
	body, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/jobs", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	if cresp, err = client.Do(req); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunked small body: HTTP %d, want 202", cresp.StatusCode)
	}

	close(release)
	want := directClusters(t, 7, gateCandidates())
	for _, id := range []string{"good", "chunked"} {
		evs := streamEvents(t, client, ts.URL, id)
		if fin := terminal(evs); fin == nil || fin.Status != StatusCompleted {
			t.Fatalf("%s terminal = %+v, want completed", id, fin)
		}
		got := clusterEvents(evs)
		if len(got) != len(want) {
			t.Fatalf("%s clusters: %d, want %d", id, len(got), len(want))
		}
		for i, cl := range want {
			if got[i].Fingerprint != fmt.Sprintf("%016x", cl.Fingerprint) || !reflect.DeepEqual(got[i].Members, cl.Members) {
				t.Fatalf("%s cluster %d = %+v, want %+v", id, i, got[i], cl)
			}
		}
	}
}

// TestSubmitBodyAllocatesReceived holds a declared Content-Length to the
// bytes that actually arrive: a body that declares 8 MiB but ends after 11
// bytes allocates under 1 MiB and gets a 400, and declared bodies on the
// growing path (over 1 MiB) still read back exactly.
func TestSubmitBodyAllocatesReceived(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{Workers: 1, QueueCap: 4, RankWorkers: 1})
	h := srv.Handler()
	const short = `{"task_id":`
	req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(short))
	req.ContentLength = 8 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("declared 8 MiB, sent %d bytes: allocated %d bytes, want under 1 MiB", len(short), got)
	}
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unexpected EOF") {
		t.Errorf("declared 8 MiB, sent %d bytes: HTTP %d %q, want 400 unexpected EOF", len(short), rec.Code, rec.Body.String())
	}

	for _, n := range []int{submitPreallocMax + 1, 3<<20 + 17, maxSubmitBytes} {
		body := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)
		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		req.ContentLength = int64(n)
		got, err := readSubmitBody(httptest.NewRecorder(), req)
		if err != nil || !bytes.Equal(got.bytes, body[:n]) {
			t.Fatalf("declared %d bytes: read %d bytes, err %v; want the %d declared bytes", n, len(got.bytes), err, n)
		}
		req = httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body[:n-1]))
		req.ContentLength = int64(n)
		if _, err := readSubmitBody(httptest.NewRecorder(), req); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("declared %d bytes, sent one fewer: err %v, want unexpected EOF", n, err)
		}
	}
}

// TestDeepCandidateRankedInvalid submits candidates nested 10^6 deep, 2 MB
// each and within the body limit, which used to overflow the parser's stack
// and kill the daemon with every job in flight. They now rank as invalid:
// the job completes with the clusters of its well-formed candidates, and a
// concurrent well-formed job completes bit-identically.
func TestDeepCandidateRankedInvalid(t *testing.T) {
	_, ts, client := newTestServer(t, Config{Workers: 2, QueueCap: 4, RankWorkers: 1})
	const deep = 1_000_000
	mk := func(rhs string) string {
		return "module top_module(\n    input a,\n    input b,\n    output y\n);\n    assign y = " + rhs + ";\nendmodule\n"
	}
	hostile := append(gateCandidates(),
		mk(strings.Repeat("(", deep)+"a"+strings.Repeat(")", deep)),
		mk(strings.Repeat("~", deep)+"b"))
	jobs := map[string][]string{"deep": hostile, "good": gateCandidates()}
	for id, codes := range jobs {
		if got, resp := submitJob(t, client, ts.URL, SubmitRequest{ID: id, TaskID: gateTaskID, Candidates: codes, Seed: 7}); got == "" {
			t.Fatalf("%s job rejected: HTTP %d", id, resp.StatusCode)
		}
	}
	want := directClusters(t, 7, gateCandidates())
	for id := range jobs {
		evs := streamEvents(t, client, ts.URL, id)
		if fin := terminal(evs); fin == nil || fin.Status != StatusCompleted {
			t.Fatalf("%s terminal = %+v, want completed", id, fin)
		}
		got := clusterEvents(evs)
		if len(got) != len(want) {
			t.Fatalf("%s clusters: %d, want %d", id, len(got), len(want))
		}
		for i, cl := range want {
			if got[i].Fingerprint != fmt.Sprintf("%016x", cl.Fingerprint) || !reflect.DeepEqual(got[i].Members, cl.Members) {
				t.Fatalf("%s cluster %d = %+v, want %+v", id, i, got[i], cl)
			}
		}
	}
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// makeResident parses every candidate of body through the front-end memo,
// as runJob does, so that a later decode finds them all resident, and
// returns the request decoded with nothing interned.
func makeResident(tb testing.TB, body []byte) SubmitRequest {
	tb.Helper()
	req, err := decodeSubmitIntern(body, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range req.Candidates {
		eval.ParseCached(c)
	}
	return req
}

// TestDecodeSubmitResidentAllocs is the interning gate: a daemon-hot-shaped
// body whose candidates are all resident in the front-end memo decodes in a
// small fixed number of allocations (the candidates slice and the task ID),
// the same for 120 candidates as for 30, and each candidate is the memo's
// own string. Decoding with nothing resident gives equal strings.
func TestDecodeSubmitResidentAllocs(t *testing.T) {
	body := hotBody(t)
	cold := makeResident(t, body)
	if len(cold.Candidates) < 100 {
		t.Fatalf("hot body has %d candidates, want about 120", len(cold.Candidates))
	}
	req, err := decodeSubmit(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, cold) {
		t.Fatal("decoding with the candidates resident differs from decoding with nothing resident")
	}
	for i, c := range req.Candidates {
		if text, ok := eval.InternText([]byte(c)); !ok || unsafe.StringData(text) != unsafe.StringData(c) {
			t.Fatalf("candidate %d is not the front-end memo's string", i)
		}
	}

	small := cold
	small.Candidates = cold.Candidates[:30]
	smallBody, err := json.Marshal(small)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const maxAllocs = 2
	for _, tc := range []struct {
		name string
		body []byte
	}{{"120 candidates", body}, {"30 candidates", smallBody}} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := decodeSubmit(tc.body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s, all resident: %.1f allocations per decode, want at most %d", tc.name, allocs, maxAllocs)
		}
	}
}

// BenchmarkDecodeSubmit decodes a daemon-hot-shaped body with decodeSubmit,
// once with nothing interned and once with every candidate resident in the
// front-end memo (a daemon-hot job after the first of its pool), and, for
// reference, with encoding/json.
func BenchmarkDecodeSubmit(b *testing.B) {
	body := hotBody(b)
	b.Run("decodeSubmit", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeSubmitIntern(body, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decodeSubmit_resident", func(b *testing.B) {
		makeResident(b, body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeSubmit(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req SubmitRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
