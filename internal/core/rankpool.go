package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/eval"
	"repro/internal/serve/faultinject"
	"repro/internal/testbench"
	"repro/internal/verilog/ast"
)

// RankPoolConfig configures one RankPool invocation. The zero value ranks
// sequentially on the compiled backend.
type RankPoolConfig struct {
	// Backend selects the simulation backend for every run.
	Backend testbench.Backend
	// Workers bounds the concurrent simulation units. Results are
	// bit-identical for any value; zero or one runs inline without
	// goroutines.
	Workers int
	// Golden is the task's golden design. Ranking does not read it.
	Golden *ast.Source
	// OnBatch, when set, is called after each completed simulation unit
	// with (completed, total) counts. Calls are serialized and monotonic
	// in completed; they arrive on worker goroutines, so the callback must
	// be fast and must not block on the caller's consumers.
	OnBatch func(done, total int)
}

// RankPoolResult is the outcome of ranking one candidate pool. All slices
// are aligned with RankPool's srcs argument; entries for nil sources stay
// nil.
type RankPoolResult struct {
	// FPs holds each candidate's fingerprint trace.
	FPs []*testbench.FPTrace
	// Clusters groups candidates by strict full-trace agreement, scored by
	// size and sorted by (Score desc, Fingerprint asc); Members hold
	// indices into srcs.
	Clusters []Cluster
	// UniqueJobs is the number of behaviourally distinct designs (distinct
	// testbench.DesignKey) in the pool.
	UniqueJobs int
}

// rankUnit is how many unique designs a ranking worker picks up at once:
// the unit behind each OnBatch call and each PointRankBatch fault point.
const rankUnit = 8

// srcJobsPool recycles RankPool's AST-to-job maps: a daemon job ranks ~120
// candidates per call, and allocating the map afresh cost more than keying
// every copy of a text.
var srcJobsPool = sync.Pool{New: func() any { return make(map[*ast.Source]int) }}

// RankPool simulates a pool of candidate sources under one stimulus and
// clusters them by strict full-trace agreement — the paper's ranking by
// simulation consistency (Eq. 2-3), extracted from Pipeline so the daemon
// can rank a (golden, candidate-pool) job directly. srcs is the pool;
// a nil entry marks an ineligible candidate (invalid, filtered) that takes
// no part in simulation or clustering but keeps indices aligned.
//
// Candidates with one testbench.DesignKey share one simulation; each unique
// design runs once on its own compiled engine, rankUnit designs to a unit
// of a Workers-bounded pool. Results are bit-identical for any worker
// count.
//
// RankPool observes ctx between units and (through the testbench)
// between test cases, so a cancel lands in bounded time; on cancellation it
// returns ctx's error with every fingerprint-memo claim released, leaving
// all process-wide caches reusable — re-running the same pool yields
// bit-identical results. A panic while simulating one candidate is confined
// to that candidate's trace error; a panic outside the per-candidate
// recovery errors only its own unit. Neither kills the calling process.
func RankPool(ctx context.Context, srcs []*ast.Source, st *testbench.Stimulus, cfg RankPoolConfig) (*RankPoolResult, error) {
	// Pass 1: dedup behaviourally identical candidates — one
	// testbench.DesignKey, so cosmetic variants collapse — in first-seen
	// order. Copies of one text share one AST (eval's front-end memo), so
	// each AST is keyed once.
	jobOf := make([]int, len(srcs))
	jobIdx := make(map[string]int, len(srcs))
	jobOfSrc := srcJobsPool.Get().(map[*ast.Source]int)
	jobs := make([]*ast.Source, 0, len(srcs))
	for i, src := range srcs {
		if src == nil {
			continue
		}
		j, seen := jobOfSrc[src]
		if !seen {
			key := testbench.DesignKey(src, eval.TopModule, &st.Ifc)
			var dup bool
			if j, dup = jobIdx[key]; !dup {
				j = len(jobs)
				jobIdx[key] = j
				jobs = append(jobs, src)
			}
			jobOfSrc[src] = j
		}
		jobOf[i] = j
	}
	clear(jobOfSrc)
	srcJobsPool.Put(jobOfSrc)
	out := &RankPoolResult{UniqueJobs: len(jobs)}

	// Pass 2: simulate each unique design. Answer what the fingerprint memo
	// and the persistent store already hold before compiling anything: the
	// plan reads each job's store record once and keeps the remaining jobs
	// claimed until their unit simulates them. A worker picks up rankUnit
	// jobs at a time; every job's trace is independent of its unit, so
	// results are bit-identical for any worker count.
	plan := testbench.PlanGang(ctx, jobs, eval.TopModule, st, cfg.Backend)
	defer plan.Release()
	all := make([]int, len(jobs))
	for j := range all {
		all[j] = j
	}
	run := func(b int) error {
		lo := b * rankUnit
		unit := all[lo:min(lo+rankUnit, len(jobs))]
		// Per-candidate crashes are confined inside each run; this recover
		// is the last line for anything outside that, erroring only this
		// unit's unresolved candidates instead of unwinding the worker.
		defer func() {
			if r := recover(); r != nil {
				plan.Fail(unit, fmt.Errorf("%w: %v", testbench.ErrSimPanic, r))
			}
		}()
		faultinject.Fire(faultinject.PointRankBatch, "")
		return plan.Run(ctx, unit)
	}
	nUnits := (len(jobs) + rankUnit - 1) / rankUnit
	if err := RunUnits(ctx, nUnits, cfg.Workers, cfg.OnBatch, run); err != nil {
		return nil, err
	}
	// Jobs in flight under other callers are collected last, once this call
	// holds no unresolved claim of its own.
	fps, err := plan.Finish(ctx)
	if err != nil {
		return nil, err
	}

	// Pass 3a: attach results in candidate order and count cluster sizes,
	// so member slices below allocate exactly once at final size.
	fpOf := make([]uint64, len(srcs))
	okOf := make([]bool, len(srcs))
	counts := make(map[uint64]int, len(jobs))
	out.FPs = make([]*testbench.FPTrace, len(srcs))
	for i, src := range srcs {
		if src == nil {
			continue
		}
		fp := fps[jobOf[i]]
		out.FPs[i] = fp
		if fp.Err != nil {
			continue // runtime failures agree with nobody
		}
		fpOf[i] = fp.Fingerprint()
		okOf[i] = true
		counts[fpOf[i]]++
	}

	// Pass 3b: cluster sequentially in candidate order (deterministic; the
	// final (score, fingerprint) sort is a total order, so insertion order
	// never shows through).
	byFP := make(map[uint64]*Cluster, len(counts))
	out.Clusters = make([]Cluster, 0, len(counts))
	for i := range srcs {
		if !okOf[i] {
			continue
		}
		fp := fpOf[i]
		cl := byFP[fp]
		if cl == nil {
			out.Clusters = append(out.Clusters, Cluster{
				Fingerprint: fp,
				Members:     make([]int, 0, counts[fp]),
			})
			cl = &out.Clusters[len(out.Clusters)-1]
			byFP[fp] = cl
		}
		cl.Members = append(cl.Members, i)
	}
	for i := range out.Clusters {
		out.Clusters[i].Score = len(out.Clusters[i].Members)
	}
	sort.Slice(out.Clusters, func(a, b int) bool {
		if out.Clusters[a].Score != out.Clusters[b].Score {
			return out.Clusters[a].Score > out.Clusters[b].Score
		}
		return out.Clusters[a].Fingerprint < out.Clusters[b].Fingerprint
	})
	return out, nil
}

// RunUnits drives run(0..n-1) on a workers-bounded pool, feeding units in
// index order. Feeding stops on the first error or on ctx cancellation;
// already-started units run to their own ctx checks. The first error wins
// (a ctx error if nothing else failed first). onDone, when non-nil, is
// called under the pool's lock after each successful unit. The ranker runs
// its simulation units on it, and the experiment drivers their cells.
func RunUnits(ctx context.Context, n, workers int, onDone func(done, total int), run func(b int) error) error {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for b := 0; b < n; b++ {
			if err := run(b); err != nil {
				return err
			}
			if onDone != nil {
				onDone(b+1, n)
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		done     int
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				err := run(b)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					done++
					if onDone != nil {
						onDone(done, n)
					}
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for b := 0; b < n; b++ {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		select {
		case next <- b:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
