package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts
// with their neighbours' load by 10-50% over minutes. That moves every
// time of a run together, wall and CPU alike, and would swamp the bounds.
// So a run times a fixed piece of CPU work, the speed probe, before every
// operation and after the last one, and scales the operation's times by
// the reference over the mean of the two probes around it. The probe runs
// in the benchmark's own process and uses none of the program's code, so a
// change to the program cannot move it.
//
// Wall times are scaled by the probe's wall time, and CPU time by the CPU
// time the probe used: when a competing process takes CPUs away, an
// operation waits longer but spends no more CPU time, and the probe does
// the same.

// probeRef is the probe's median on the 2-vCPU Intel Xeon machine the
// bounds were set on, at its usual speed; scaled times read as times on
// that machine at that speed.
var probeRef = speed{wall: 0.092, cpu: 0.172}

// speed is one probe's wall time and the CPU time it used, in seconds.
type speed struct{ wall, cpu float64 }

// probeSink keeps the probe's results live.
var probeSink atomic.Int64

// probeChunks is how many pieces of probeWork one probe runs per CPU. The
// CPUs take pieces from a shared counter, as the workloads' worker pools
// take jobs, so a CPU that stalls for a while leaves its share to the
// others instead of holding up the whole probe.
const probeChunks = 4

// probe runs probeChunks pieces of probeWork per CPU on every CPU at once
// and returns its speed.
func probe() speed {
	n := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := next.Add(1); c <= int64(probeChunks*n); c = next.Add(1) {
				probeSink.Add(int64(probeWork(int(c))))
			}
		}()
	}
	wg.Wait()
	return speed{wall: time.Since(start).Seconds(), cpu: (processCPU() - cpu0).Seconds()}
}

// processCPU is the user and system time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeWork is one piece of hashing, map, sort and allocation work.
func probeWork(seed int) int {
	acc := 0
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * seed)
	}
	for j := 0; j < 20; j++ {
		sum := sha256.Sum256(buf)
		acc += int(sum[0])
	}
	m := make(map[string]int)
	for i := 0; i < 30000; i++ {
		m[strconv.Itoa(i*7919+seed)] += i
		acc += m[strconv.Itoa(i*13)]
	}
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = float64((i * 2654435761) % 1000003)
	}
	sort.Float64s(xs)
	acc += int(xs[len(xs)/2])
	type node struct {
		next *node
		v    [4]int
	}
	var head *node
	for i := 0; i < 100000; i++ {
		head = &node{next: head, v: [4]int{i}}
		if i%1000 == 0 {
			acc += head.v[0]
			head = nil
		}
	}
	return acc
}
