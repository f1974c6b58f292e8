package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// record is the JSON the full protocol writes: the machine, the protocol,
// and per workload every end-to-end metric summarized over the untraced
// rounds plus the traced round's per-layer values.
type record struct {
	Machine   machine                    `json:"machine"`
	Rounds    int                        `json:"rounds"`
	Seconds   float64                    `json:"seconds_per_run"`
	Order     [][]string                 `json:"order"`
	Workloads map[string]*workloadRecord `json:"workloads"`
	Correct   bool                       `json:"correct"`
	Checks    []string                   `json:"failed_checks"`
}

type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

type workloadRecord struct {
	EndToEnd  map[string]*summary `json:"end_to_end"`
	PerLayer  map[string]metric   `json:"per_layer"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	// Failures counts failed operations by reason, over every round.
	Failures failures `json:"failures"`
	// StreamReopens counts daemon job streams that ended without a terminal
	// event and were opened again, over every round.
	StreamReopens int `json:"stream_reopens"`
}

// summary is one metric over the rounds.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// protocol runs every workload for the untraced rounds, rotating the
// workload order each round, then one traced round; it checks that every
// Table I workload rendered the same table, writes the record to the out
// directory and prints every metric. ok is false when a check failed.
func (b *bench) protocol(ws []workload, budget time.Duration, stdout io.Writer) (ok bool, err error) {
	rec := &record{
		Machine:   b.machine(),
		Rounds:    rounds,
		Seconds:   budget.Seconds(),
		Workloads: map[string]*workloadRecord{},
	}
	for _, w := range ws {
		rec.Workloads[w.name] = &workloadRecord{EndToEnd: map[string]*summary{}, Failures: failures{}}
	}
	digests := map[string]string{}
	for round := 0; round <= rounds; round++ {
		traced := round == rounds
		order := make([]string, len(ws))
		for i := range ws {
			w := ws[(i+round)%len(ws)]
			order[i] = w.name
			r, err := b.runWorkload(w, traced, budget)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			wr := rec.Workloads[w.name]
			wr.Attempted += r.attempted
			wr.Failed += r.fails.total()
			wr.StreamReopens += r.reopens
			for reason, n := range r.fails {
				wr.Failures[reason] += n
			}
			for _, c := range r.checks {
				rec.Checks = append(rec.Checks, w.name+": "+c)
			}
			if r.digest != "" {
				digests[w.name+" round "+fmt.Sprint(round+1)] = r.digest
			}
			res := r.result()
			if traced {
				wr.PerLayer = res.Metrics
				continue
			}
			for name, m := range res.Metrics {
				s := wr.EndToEnd[name]
				if s == nil {
					s = &summary{Unit: m.Unit}
					wr.EndToEnd[name] = s
				}
				s.Values = append(s.Values, m.Value)
			}
		}
		rec.Order = append(rec.Order, order)
	}
	// A store must never change results: every Table I workload, in every
	// round, renders the same table.
	var first, firstKey string
	for key, d := range digests {
		if first == "" {
			first, firstKey = d, key
		} else if d != first {
			rec.Checks = append(rec.Checks, fmt.Sprintf("Table I digest of %s (%.12s) differs from %s (%.12s)", key, d, firstKey, first))
		}
	}
	for _, wr := range rec.Workloads {
		for _, s := range wr.EndToEnd {
			s.N = len(s.Values)
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
		}
	}
	rec.Correct = len(rec.Checks) == 0

	path := filepath.Join(b.outDir, fmt.Sprintf("record-seed%d.json", b.seed))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	rec.print(ws, stdout)
	fmt.Fprintf(stdout, "record: %s\n", path)
	return rec.Correct, nil
}

func (rec *record) print(ws []workload, w io.Writer) {
	m := rec.Machine
	fmt.Fprintf(w, "machine: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\n", m.CPU, m.NProc, m.GOMAXPROCS, m.Go, m.Commit, m.Seed)
	for _, wl := range ws {
		wr := rec.Workloads[wl.name]
		fmt.Fprintf(w, "\n%s: %d attempted, %d failed, %d streams reopened\n", wl.name, wr.Attempted, wr.Failed, wr.StreamReopens)
		for _, d := range endToEnd {
			if s, ok := wr.EndToEnd[d.name]; ok {
				fmt.Fprintf(w, "  %-28s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d %s\n", d.name, s.Median, s.Q1, s.Q3, s.N, d.unit)
			} else {
				fmt.Fprintf(w, "  %-28s withheld %s\n", d.name, d.unit)
			}
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.name]; ok {
				fmt.Fprintf(w, "  %-28s %-12.6g %s\n", d.name, v.Value, d.unit)
			}
		}
		for reason, n := range wr.Failures {
			fmt.Fprintf(w, "  FAILED x%d: %s\n", n, reason)
		}
	}
	for _, c := range rec.Checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	if rec.Correct {
		fmt.Fprintln(w, "\nall output checks passed")
	}
}

func (b *bench) machine() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      b.nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Seed:       b.seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			m.Commit += "+modified"
		}
	}
	return m
}
