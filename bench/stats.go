package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around a public call into the program. Spans of one Table I cell or one
// daemon job share a Trace id; Parent is the ID of the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, when the
// measured work is over. Times are nanoseconds since the recorder's epoch.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add stores s under a fresh ID and returns that ID.
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is p's duration minus the part of its interval that the child
// spans cover. Overlapping children count once, and the parts of children
// outside p count not at all.
func selfTime(p span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, p.Start), min(c.End, p.End)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	curS, curE := int64(0), int64(0)
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			covered += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		curE = max(curE, v[1])
	}
	covered += curE - curS
	return time.Duration(p.End - p.Start - covered)
}

// median returns the middle value (mean of the two middle values for an
// even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1 and q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method). With fewer than two
// values both quartiles equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailPercentile returns the nearest-rank pct-th percentile of xs
// (0 < pct < 100). ok is false when fewer than minTail samples lie beyond
// it; such a tail is withheld rather than reported from too few samples
// (for p99 that means fewer than 1000 samples).
func tailPercentile(xs []float64, pct int) (v float64, ok bool) {
	n := len(xs)
	rank := (pct*n + 99) / 100 // ceil(pct*n/100)
	if n == 0 || n-rank < minTail {
		return math.NaN(), false
	}
	return sortedCopy(xs)[max(rank, 1)-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// failures tallies failed operations by reason; each failure counts once.
type failures map[string]int

func (f failures) add(format string, args ...any) { f[fmt.Sprintf(format, args...)]++ }

func (f failures) total() int {
	n := 0
	for _, v := range f {
		n += v
	}
	return n
}
