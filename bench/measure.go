package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile is the exact nearest-rank p-quantile of ascending samples.
func quantile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// best is the value a run reports for a timing measured once per
// repetition: the best repetition's. On a shared machine whatever else
// runs only ever makes a repetition slower, for tens of seconds at a
// time, so a run's median moves with the neighbours while its best
// repetition stays with the program.
func best(vs []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return slices.Min(vs)
	}
	return slices.Max(vs)
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU is the CPU the collector has used so far, as the runtime
// estimates it at the end of each cycle.
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// meter brackets one repetition's timed region. start and stop read the
// process counters right at the region's edges; the forced collections
// that make HeapInuse comparable happen outside them.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	gc0  time.Duration
	m0   runtime.MemStats

	wall, cpu   time.Duration
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	gcCPU       time.Duration
	heapGrowth  int64 // HeapInuse after a forced GC, end minus start
	heapInuseMB float64
}

func (m *meter) start() {
	runtime.GC()
	runtime.ReadMemStats(&m.m0)
	m.gc0 = gcCPU()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

// stop closes the region. keep is whatever must stay reachable for the
// closing heap reading to mean "what the server retains".
func (m *meter) stop(keep any) {
	m.wall = time.Since(m.t0)
	m.cpu = cpuTime() - m.cpu0
	m.gcCPU = gcCPU() - m.gc0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	m.mallocs = m1.Mallocs - m.m0.Mallocs
	m.allocBytes = m1.TotalAlloc - m.m0.TotalAlloc
	m.gcCycles = m1.NumGC - m.m0.NumGC
	m.gcPause = time.Duration(m1.PauseTotalNs - m.m0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	m.heapGrowth = int64(m1.HeapInuse) - int64(m.m0.HeapInuse)
	m.heapInuseMB = float64(m1.HeapInuse) / (1 << 20)
	runtime.KeepAlive(keep)
}
