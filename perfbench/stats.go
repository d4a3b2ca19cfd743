package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// tailPercentile is the highest whole percentile of n samples that leaves
// at least tailBeyond of them beyond it, never below the median: with
// fewer than 2·tailBeyond samples the tail is reported as p50.
func tailPercentile(n int) int {
	if n <= 0 {
		return 50
	}
	p := 100 * (n - tailBeyond) / n
	if p < 50 {
		p = 50
	}
	return p
}

// percentile is the nearest-rank p-th percentile of xs (sorted in place).
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := (p*len(xs) + 99) / 100
	if k < 1 {
		k = 1
	}
	return xs[k-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSnap is the process-wide resource counters at one instant.
type procSnap struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	numGC   uint32
	gcCPU   float64 // estimated GC CPU seconds
	busyCPU float64 // estimated non-idle CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func snap() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a live process cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		gcCPU:   cpuMetrics[0].Value.Float64(),
		busyCPU: cpuMetrics[1].Value.Float64() - cpuMetrics[2].Value.Float64(),
	}
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // see snap
	// Linux reports Maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}
