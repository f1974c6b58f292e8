package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"testing"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/testbench"
)

// storeProcMarker prefixes the one machine-readable line the child process
// emits; everything else on the test binary's stdout is go-test chatter.
const storeProcMarker = "STOREPROC-REPORT "

const (
	storeProcChildEnv = "VFOCUS_STORE_CHILD"
	storeProcDirEnv   = "VFOCUS_STORE_DIR"
)

// storeProcCluster is the portion of a Cluster that must be bit-identical
// across processes: membership, shared fingerprint, and rank score.
type storeProcCluster struct {
	Members     []int  `json:"members"`
	Fingerprint uint64 `json:"fingerprint"`
	Score       int    `json:"score"`
}

type storeProcReport struct {
	Clusters []storeProcCluster   `json:"clusters"`
	Stats    testbench.StoreStats `json:"stats"`
	StoreLen int                  `json:"store_len"`
	// Compiles counts process-wide compile-cache misses during the rank.
	Compiles uint64 `json:"compiles"`
}

// storeProcChildMain ranks the standard benchmark pool against a disk store
// rooted at dir and prints a storeProcReport. It runs inside a re-executed
// copy of the test binary, so its fingerprint memo is genuinely cold: only
// the on-disk store can spare it simulation work.
func storeProcChildMain(t *testing.T, dir string) {
	store, err := resultstore.NewDisk(dir)
	if err != nil {
		t.Fatalf("child: open disk store: %v", err)
	}
	prev := testbench.SetStore(store)
	defer testbench.SetStore(prev)
	testbench.ResetStoreStats()

	task := eval.Suite()[120]
	profile, err := llm.ProfileByName("qwq-32b")
	if err != nil {
		t.Fatal(err)
	}
	client, err := llm.NewSimClient(profile, 11, []eval.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(VariantVRank, profile.Name)
	cfg.Samples = 30
	cfg.RetryBaseDelay = 0
	cfg.Workers = 1
	pipe := New(client, cfg)

	cands := make([]Candidate, 0, cfg.Samples)
	for i := 0; i < cfg.Samples; i++ {
		c, err := pipe.generateOne(context.Background(), task, i)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, c)
	}
	res := &Result{Task: task, FinalIndex: -1, Candidates: cands}
	_, missesBefore := sim.DefaultCache.Stats()
	if err := pipe.rank(context.Background(), res); err != nil {
		t.Fatalf("child: rank: %v", err)
	}
	_, missesAfter := sim.DefaultCache.Stats()
	if len(res.Clusters) == 0 {
		t.Fatal("child: ranking produced no clusters")
	}

	rep := storeProcReport{Stats: testbench.ReadStoreStats(), Compiles: missesAfter - missesBefore}
	for _, cl := range res.Clusters {
		rep.Clusters = append(rep.Clusters, storeProcCluster{
			Members:     cl.Members,
			Fingerprint: cl.Fingerprint,
			Score:       cl.Score,
		})
	}
	if n, err := store.Len(); err == nil {
		rep.StoreLen = n
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("%s%s\n", storeProcMarker, out)
}

// storeProcRunChild re-executes this test binary restricted to
// TestCrossProcessStoreDeterminism with the child env set, and parses the
// report line back out of its output.
func storeProcRunChild(t *testing.T, dir string) storeProcReport {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestCrossProcessStoreDeterminism$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		storeProcChildEnv+"=1",
		storeProcDirEnv+"="+dir,
	)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("child process failed: %v\n%s", err, buf.String())
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) > len(storeProcMarker) && line[:len(storeProcMarker)] == storeProcMarker {
			var rep storeProcReport
			if err := json.Unmarshal([]byte(line[len(storeProcMarker):]), &rep); err != nil {
				t.Fatalf("bad child report %q: %v", line, err)
			}
			return rep
		}
	}
	t.Fatalf("child emitted no report line:\n%s", buf.String())
	return storeProcReport{}
}

// TestCrossProcessStoreDeterminism proves the headline property of the disk
// store: a second, completely fresh process pointed at the same store
// directory ranks the identical pool with ZERO simulations and no candidate
// compiled — every fingerprint comes off disk — and produces bit-identical
// clusters. The two runs share no process state; only the content-addressed
// files connect them.
func TestCrossProcessStoreDeterminism(t *testing.T) {
	if os.Getenv(storeProcChildEnv) == "1" {
		storeProcChildMain(t, os.Getenv(storeProcDirEnv))
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary twice")
	}

	dir := t.TempDir()
	cold := storeProcRunChild(t, dir)
	warm := storeProcRunChild(t, dir)

	if cold.Stats.Sims == 0 {
		t.Fatal("cold process reported zero simulations; harness is broken")
	}
	if cold.Stats.Puts == 0 {
		t.Fatal("cold process published nothing to the store")
	}
	if cold.StoreLen == 0 {
		t.Fatal("store is empty after the cold process")
	}
	if warm.Stats.Sims != 0 {
		t.Fatalf("warm process simulated %d times; want 0 (hits=%d misses=%d)",
			warm.Stats.Sims, warm.Stats.Hits, warm.Stats.Misses)
	}
	if warm.Stats.Hits == 0 {
		t.Fatal("warm process reported zero store hits")
	}
	// Store hits are answered before compiling: the warm process may
	// compile the golden but no candidate.
	if warm.Compiles > 1 {
		t.Fatalf("warm process compiled %d designs; want at most 1 (cold compiled %d)", warm.Compiles, cold.Compiles)
	}
	if !reflect.DeepEqual(cold.Clusters, warm.Clusters) {
		t.Fatalf("clusters diverged across processes:\ncold: %+v\nwarm: %+v",
			cold.Clusters, warm.Clusters)
	}
}
