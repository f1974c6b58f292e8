package exp

import (
	"context"
	"math"
	"testing"

	"repro/internal/eval"
)

// TestTable1WorkersEquivalence pins the acceptance criterion for the cell
// pool: a reduced Table I over several runs and two models must produce
// bit-identical rows whether its cells run on one worker or many. Each cell
// writes its own slot and aggregation sums them in (task ID, run) order, so
// completion order never reaches the floating-point sums.
func TestTable1WorkersEquivalence(t *testing.T) {
	all := eval.Suite()
	var tasks []eval.Task
	for i := 0; i < len(all); i += 12 {
		tasks = append(tasks, all[i])
	}
	run := func(workers int) []Table1Row {
		res, err := RunTable1(context.Background(), Table1Config{
			Models:  []string{"qwq-32b", "deepseek-r1"},
			Tasks:   tasks,
			Samples: 10,
			Runs:    3,
			Seed:    5,
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Rows
	}
	r1 := run(1)
	r4 := run(4)
	if len(r1) != len(r4) {
		t.Fatalf("row count %d at Workers=1, %d at Workers=4", len(r1), len(r4))
	}
	for i := range r1 {
		a, b := r1[i], r4[i]
		if a.Model != b.Model || a.Dataset != b.Dataset {
			t.Fatalf("row %d: %s/%s at Workers=1, %s/%s at Workers=4", i, a.Model, a.Dataset, b.Model, b.Dataset)
		}
		for _, f := range []struct {
			name string
			x, y float64
		}{
			{"Pass@1", a.BasePass1, b.BasePass1},
			{"Pass@2", a.BasePass2, b.BasePass2},
			{"Pass@3", a.BasePass3, b.BasePass3},
			{"VRank", a.VRank, b.VRank},
			{"Pre+VRank", a.PreVRank, b.PreVRank},
			{"VFocus", a.VFocus, b.VFocus},
		} {
			if math.Float64bits(f.x) != math.Float64bits(f.y) {
				t.Errorf("%s/%s %s: %v (%#x) at Workers=1, %v (%#x) at Workers=4",
					a.Model, a.Dataset, f.name, f.x, math.Float64bits(f.x), f.y, math.Float64bits(f.y))
			}
		}
	}
}
