package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
)

// vfocusdBin is the daemon TestMain builds for the daemon workloads.
var vfocusdBin string

func TestMain(m *testing.M) {
	// Child processes of the benchmark re-run this test binary.
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	vfocusdBin = filepath.Join(dir, "vfocusd")
	if out, err := exec.Command("go", "build", "-o", vfocusdBin, "repro/cmd/vfocusd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build vfocusd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// toySizes is every workload shrunk to seconds: Table I over one model,
// one combinational and one sequential task, n=8 and one run; daemon
// batches of 20 jobs.
func toySizes() sizes {
	var cmb, seq = -1, -1
	for _, t := range eval.Suite() {
		if t.Category == eval.Combinational && cmb < 0 {
			cmb = t.Index
		}
		if t.Category == eval.Sequential && seq < 0 {
			seq = t.Index
		}
	}
	t1 := table1Args{Models: []string{"deepseek-r1"}, Tasks: []int{cmb, seq}, Samples: 8, Runs: 1}
	return sizes{table1: t1, reduced: t1, coldJobs: 20, hotJobs: 20, hotPools: 8, coldPoolSize: 30, hotPoolSize: 30}
}

func newToyBench(t *testing.T, log *bytes.Buffer) *bench {
	t.Helper()
	b, err := newBench(context.Background(), 1, vfocusdBin, t.TempDir(), "", log)
	if err != nil {
		t.Fatal(err)
	}
	b.sizes = toySizes()
	b.minIters = 1
	return b
}

func TestRegistrationMatchesCode(t *testing.T) {
	if err := checkRegistration("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCHMARK.json")
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(string(data), `"unit": "MB"`, `"unit": "GB"`, 1)
	if err := os.WriteFile(path, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	if checkRegistration(path) == nil {
		t.Error("a registration with a changed unit passed")
	}
}

// TestWorkloadsPrintEveryMetric runs every workload at toy size, untraced
// and traced, and requires every registered metric to be printed with its
// unit and the outputs to check out.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				var log bytes.Buffer
				b := newToyBench(t, &log)
				r, err := b.runWorkload(w, traced, 0)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !r.correct() {
					t.Fatalf("output checks failed: %v\n%s", r.checks, log.String())
				}
				res := r.result()
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				for _, m := range r.defs() {
					line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.name) + ` .* ` + regexp.QuoteMeta(m.unit) + `( |$)`)
					if !line.MatchString(log.String()) {
						t.Errorf("%s (%s) not printed:\n%s", m.name, m.unit, log.String())
					}
					got, ok := res.Metrics[m.name]
					if !ok && m.name != "job_p99_ms" {
						t.Errorf("%s missing from the JSON result", m.name)
					}
					measured := !strings.HasPrefix(w.name, "table1") || !slices.Contains(table1Unmeasured, m.name)
					if ok && (got.Value == notMeasured) == measured {
						t.Errorf("%s = %v on %s; measured: %v", m.name, got.Value, w.name, measured)
					}
				}
			})
		}
	}
}

// TestCorruptedDigestFailsCheck feeds the daemon batch a replay reference
// with one job's digest corrupted, and a Table I operation a wrong
// reference digest; both must fail the run's output check.
func TestCorruptedDigestFailsCheck(t *testing.T) {
	var log bytes.Buffer
	b := newToyBench(t, &log)
	cold, _ := findWorkload("daemon-cold")
	r := b.newRun(cold, false, 0)
	set, err := r.makeJobs(b.sizes.coldJobs, b.sizes.coldJobs, b.sizes.coldPoolSize)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(b.workdir, "jobs.json")
	data, _ := json.Marshal(set)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ref replayOut
	if _, err := r.child("replay", replayArgs{Jobs: path, Workers: b.nproc}, &ref); err != nil {
		t.Fatal(err)
	}
	if err := r.daemonOp(set, &ref, false); err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("clean reference failed the check: %v", r.checks)
	}
	ref.Digests[3] = strings.Repeat("0", 64)
	if err := r.daemonOp(set, &ref, false); err != nil {
		t.Fatal(err)
	}
	if r.correct() {
		t.Error("a corrupted job digest passed the daemon check")
	}

	table1, _ := findWorkload("table1")
	r = b.newRun(table1, false, 0)
	r.digest = strings.Repeat("0", 64)
	out, ok := r.table1Op(r.table1Args(), false)
	if !ok {
		t.Fatalf("table1 operation failed: %v", r.fails)
	}
	r.sameDigest(out.Digest)
	if r.correct() {
		t.Error("a wrong Table I digest passed the check")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending, so the function must sort
	}
	if _, ok := tailPercentile(xs, 99); ok {
		t.Error("p99 reported from 999 samples")
	}
	xs = append(xs, 1000)
	v, ok := tailPercentile(xs, 99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := tailPercentile(xs, 50); !ok {
		t.Error("p50 of 1000 samples withheld")
	}
}

// TestWindowP99 checks that job_p99_ms is the median of per-window p99s:
// withheld below jobWindow jobs, and moved little by one slow window.
func TestWindowP99(t *testing.T) {
	ramp := func(n int, top float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = top * float64(i+1) / float64(n)
		}
		return xs
	}
	// p99 of a run whose operations time these jobs, at the reference speed.
	p99 := func(jobs ...[]float64) (float64, bool) {
		r := &run{}
		for _, ms := range jobs {
			r.probes = append(r.probes, probeRef)
			r.ops = append(r.ops, opSample{probe: len(r.probes) - 1, jobMS: ms})
		}
		r.probes = append(r.probes, probeRef)
		return r.windowP99(false)
	}
	for _, tc := range []struct {
		name string
		jobs [][]float64
		want float64 // NaN: withheld
	}{
		{"999 jobs", [][]float64{ramp(500, 10), ramp(499, 10)}, math.NaN()},
		{"one slow window of four", [][]float64{ramp(1000, 10), ramp(1000, 1000), ramp(1000, 10), ramp(1000, 10)}, 9.9},
		{"left-over jobs join the last window", [][]float64{ramp(1000, 10), ramp(10, 1000)}, 10},
	} {
		v, ok := p99(tc.jobs...)
		if math.IsNaN(tc.want) {
			if ok {
				t.Errorf("%s: p99 reported: %v", tc.name, v)
			}
			continue
		}
		if !ok || math.Abs(v-tc.want) > 1e-9 {
			t.Errorf("%s: p99 = %v, %v; want %v, true", tc.name, v, ok, tc.want)
		}
	}
}

// TestStreamReopen serves a job whose first stream ends without its
// terminal event; the client must open the stream again and digest only
// the replayed log.
func TestStreamReopen(t *testing.T) {
	var opens atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id": "job-1"}`)
	})
	mux.HandleFunc("/jobs/job-1/stream", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"type": "cluster", "rank": 1, "score": 7, "fingerprint": "00ff", "members": [0, 2]}`)
		if opens.Add(1) > 1 {
			fmt.Fprintln(w, `{"type": "done", "status": "completed"}`)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	jr := runJob(context.Background(), srv.Client(), srv.URL, []byte(`{}`), nil, "job-1")
	if jr.fail != "" || jr.reopens != 1 {
		t.Fatalf("fail %q after %d reopens; want none after 1", jr.fail, jr.reopens)
	}
	h := sha256.New()
	writeCluster(h, 1, 7, "00ff", []int{0, 2})
	if want := hex.EncodeToString(h.Sum(nil)); jr.digest != want {
		t.Errorf("digest %s, want %s", jr.digest, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 140}, {Start: 130, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 180, End: 300}}, 60},
		{"outside the parent", []span{{Start: 0, End: 100}, {Start: 200, End: 250}}, 100},
		{"touching", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
	} {
		if got := selfTime(p, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}
