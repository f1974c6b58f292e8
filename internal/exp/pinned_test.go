package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/testbench"
)

// Pinned SHA-256 digests of the rendered experiments. Table I is paper size
// at one run; Fig. 3 and Fig. 4 use the CLI's -quick sizes. A change to any
// literal must say in CHANGES.md why the output changed.
const (
	pinnedTable1Seed1 = "00bdf4e96ad21588646f097a51b6d24664d9caa245d1c53d924a6fc6769f4659"
	pinnedTable1Seed3 = "372ca92dd70508fd7afc3dfcbce05ec32092a46a3e95164be92c8b1ee1b7f4d8"
	pinnedFig3Seed1   = "b915886bccbd95a5d1efd52775c2d153c59eb7cab18a5aaf11b1ed5fea6d0771"
	pinnedFig4Seed1   = "087973740c73d7c86f44ad9eab5b519da13f417ccff6797d583ceb7501279d13"
)

// Seed-1 Table I work windows, counted at Workers 2. Task-major cell order
// runs 11,341 fingerprint simulations and about 12.0k front-end parses.
// Model-major order runs about 13.1k and 14.1k, so a return to it, or a
// memo that stops hitting, fails here.
const (
	table1MaxFPSims = 11600
	table1MaxParses = 12300
	pinnedWorkers   = 2
)

func renderDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func skipPinnedUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("paper-size experiment skipped under the race detector")
	}
}

// TestTable1Pinned renders paper-size Table I (3 models × 156 tasks, n=50,
// one run, compiled backend) at seeds 1 and 3 and compares each against its
// pinned digest. At seed 1 it also bounds the fingerprint simulations and
// front-end parses the run performs, and logs its compile-cache misses.
func TestTable1Pinned(t *testing.T) {
	skipPinnedUnderRace(t)
	for _, c := range []struct {
		seed int64
		want string
	}{{1, pinnedTable1Seed1}, {3, pinnedTable1Seed3}} {
		sims0, parses0 := testbench.ReadStoreStats().Sims, eval.FrontEndMemoStats().Misses
		_, cmiss0 := sim.DefaultCache.Stats()
		res, err := RunTable1(context.Background(), Table1Config{Runs: 1, Seed: c.seed, Workers: pinnedWorkers})
		if err != nil {
			t.Fatalf("seed %d: %v", c.seed, err)
		}
		sims := testbench.ReadStoreStats().Sims - sims0
		parses := eval.FrontEndMemoStats().Misses - parses0
		_, cmiss := sim.DefaultCache.Stats()
		t.Logf("seed %d: fp_sims=%d parses=%d compile misses=%d", c.seed, sims, parses, cmiss-cmiss0)
		if got := renderDigest(res.Render()); got != c.want {
			t.Errorf("seed %d: Table I render digest = %s, want %s\n%s", c.seed, got, c.want, res.Render())
		}
		if c.seed != 1 {
			continue
		}
		if sims > table1MaxFPSims {
			t.Errorf("seed 1: %d fingerprint simulations, window is ≤ %d", sims, table1MaxFPSims)
		}
		if parses > table1MaxParses {
			t.Errorf("seed 1: %d front-end parses, window is ≤ %d", parses, table1MaxParses)
		}
	}
}

// TestFig3Pinned renders Fig. 3 at -quick sizes (4 models × 156 tasks,
// n=20, 10 bins) at seed 1 and compares it against its pinned digest.
func TestFig3Pinned(t *testing.T) {
	skipPinnedUnderRace(t)
	res, err := RunFig3(context.Background(), Fig3Config{Samples: 20, Bins: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDigest(res.Render()); got != pinnedFig3Seed1 {
		t.Errorf("Fig. 3 render digest = %s, want %s\n%s", got, pinnedFig3Seed1, res.Render())
	}
}

// TestFig4Pinned renders Fig. 4 at -quick sizes (3 models × 156 tasks,
// n ∈ {5, 15, 30, 50}, 2 runs) at seed 1 and compares it against its
// pinned digest.
func TestFig4Pinned(t *testing.T) {
	skipPinnedUnderRace(t)
	res, err := RunFig4(context.Background(), Fig4Config{SampleSizes: []int{5, 15, 30, 50}, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDigest(res.Render()); got != pinnedFig4Seed1 {
		t.Errorf("Fig. 4 render digest = %s, want %s\n%s", got, pinnedFig4Seed1, res.Render())
	}
}

// TestTable1PinnedInterpreter renders the seed-1 paper-size Table I on the
// interpreter backend and compares it against the compiled backend's pinned
// digest: the interpreter is the independent semantic reference, so this is
// the paper-size check that the compiled and fingerprint paths
// compute what the reference computes.
func TestTable1PinnedInterpreter(t *testing.T) {
	skipPinnedUnderRace(t)
	res, err := RunTable1(context.Background(), Table1Config{Runs: 1, Seed: 1, Workers: pinnedWorkers, Backend: testbench.BackendInterpreter})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDigest(res.Render()); got != pinnedTable1Seed1 {
		t.Errorf("interpreter Table I render digest = %s, want %s\n%s", got, pinnedTable1Seed1, res.Render())
	}
}
