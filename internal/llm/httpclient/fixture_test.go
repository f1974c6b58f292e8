package httpclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
)

// TestRecordThenReplayZeroEgress records a small exchange set against the
// embedded reference server, then replays it with a transport that fails
// the test on any dial — the hermeticity guarantee CI leans on.
func TestRecordThenReplayZeroEgress(t *testing.T) {
	tk := eval.Suite()[0]
	dir := t.TempDir()
	ctx := context.Background()

	rec, err := New("deepseek-r1", 1, Options{
		Mode:       ModeRecord,
		FixtureDir: dir,
		Tasks:      eval.Suite()[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []llm.Response
	for sample := 0; sample < 3; sample++ {
		r, err := rec.Generate(ctx, testGenReq(tk, sample))
		if err != nil {
			if !errors.Is(err, llm.ErrTransient) {
				t.Fatalf("record sample %d: %v", sample, err)
			}
			want = append(want, llm.Response{})
			continue
		}
		want = append(want, r)
	}
	rec.Close()

	if n, err := VerifyFixtureDir(dir); err != nil || n == 0 {
		t.Fatalf("VerifyFixtureDir = (%d, %v), want fixtures and no error", n, err)
	}

	rep, err := New("deepseek-r1", 1, Options{
		Mode:       ModeReplay,
		FixtureDir: dir,
		Transport:  dialBomb{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for sample := 0; sample < 3; sample++ {
		r, err := rep.Generate(ctx, testGenReq(tk, sample))
		if err != nil {
			if !errors.Is(err, llm.ErrTransient) {
				t.Fatalf("replay sample %d: %v", sample, err)
			}
			continue
		}
		if r != want[sample] {
			t.Fatalf("replay sample %d diverged:\n%+v\nvs recorded\n%+v", sample, r, want[sample])
		}
	}

	// A request with no fixture is a typed, permanent miss — replay never
	// falls back to the network.
	_, err = rep.Generate(ctx, testGenReq(tk, 999))
	if !errors.Is(err, ErrNoFixture) {
		t.Fatalf("missing fixture error = %v, want ErrNoFixture", err)
	}
	if errors.Is(err, llm.ErrTransient) {
		t.Fatalf("missing fixture classified transient: %v", err)
	}
	st := rep.ReadStats()
	if st.FixtureMisses != 1 || st.FixtureHits == 0 {
		t.Fatalf("fixture counters = %d hits / %d misses", st.FixtureHits, st.FixtureMisses)
	}
}

// dialBomb is a RoundTripper that fails the test on use: replay mode must
// never reach it.
type dialBomb struct{ t *testing.T }

func (d dialBomb) RoundTrip(r *http.Request) (*http.Response, error) {
	d.t.Errorf("replay mode dialed %s", r.URL)
	return nil, errors.New("network egress in replay mode")
}

// TestStaleFixtureDetected is the staleness gate: a fixture whose embedded
// request no longer hashes to its file name (format drift, manual edit)
// must fail verification and replay, not silently serve a wrong response.
func TestStaleFixtureDetected(t *testing.T) {
	tk := eval.Suite()[0]
	dir := t.TempDir()
	ctx := context.Background()
	rec, err := New("deepseek-r1", 1, Options{
		Mode:       ModeRecord,
		FixtureDir: dir,
		Tasks:      eval.Suite()[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Generate(ctx, testGenReq(tk, 0)); err != nil && !errors.Is(err, llm.ErrTransient) {
		t.Fatal(err)
	}
	rec.Close()

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures recorded: %v", err)
	}
	// Tamper: change the embedded request so its hash no longer matches.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var fx fixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	fx.Request = json.RawMessage(strings.Replace(string(fx.Request), tk.ID, "tampered_task", 1))
	out, err := json.Marshal(&fx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], out, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := VerifyFixtureDir(dir); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("VerifyFixtureDir on tampered dir = %v, want stale error", err)
	}
	rep, err := New("deepseek-r1", 1, Options{Mode: ModeReplay, FixtureDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Generate(ctx, testGenReq(tk, 0)); err == nil {
		t.Fatal("replay served a stale fixture")
	}
}

// TestStampedeNoReLead drives many short stampedes in replay mode, where an
// attempt is a fast fixture read, so a caller that misses the cache can
// reach the flight table just as the leader finishes. Each round releases
// 16 callers on a fresh request through one start barrier and must cost
// exactly one wire request: the leader caches and leaves the flight table
// in one step, and a late caller re-checks the cache before leading.
func TestStampedeNoReLead(t *testing.T) {
	const rounds, callers = 200, 16
	tk := eval.Suite()[0]
	dir := t.TempDir()
	ctx := context.Background()
	rec, err := New("deepseek-r1", 1, Options{
		Mode:       ModeRecord,
		FixtureDir: dir,
		Tasks:      eval.Suite()[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the samples that recorded a completion: a recorded transient
	// replays as a transient, which the retry loop re-reads.
	var samples []int
	for sample := 0; len(samples) < rounds; sample++ {
		if _, err := rec.Generate(ctx, testGenReq(tk, sample)); err == nil {
			samples = append(samples, sample)
		} else if !errors.Is(err, llm.ErrTransient) {
			t.Fatalf("record sample %d: %v", sample, err)
		}
	}
	rec.Close()

	rep, err := New("deepseek-r1", 1, Options{Mode: ModeReplay, FixtureDir: dir, Transport: dialBomb{t}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for round, sample := range samples {
		before := rep.ReadStats().WireRequests
		req := testGenReq(tk, sample)
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, callers)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[g] = rep.Generate(ctx, req)
			}()
		}
		close(start)
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("round %d caller %d: %v", round, g, err)
			}
		}
		if got := rep.ReadStats().WireRequests - before; got != 1 {
			t.Fatalf("round %d (sample %d): %d wire requests for %d callers, want exactly 1", round, sample, got, callers)
		}
	}
}
