package main

import (
	"runtime"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule; xs is sorted in place. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memSnap is the part of runtime.MemStats a timed phase reports as a
// delta.
type memSnap struct {
	mallocs, numGC uint64
	pauseNs        uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, uint64(m.NumGC), m.PauseTotalNs}
}

// liveHeapMB forces a collection and returns the live heap in MB (10^6
// bytes). The second collection empties the sync.Pool victim caches, which
// otherwise keep a searcher from an earlier boot alive in some runs.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// reportRuntime records the collector and allocator work of one timed
// phase of ops primary operations.
func reportRuntime(rep *report, before, after memSnap, ops int64) {
	rep.layerMetric("runtime.gc_cycles", float64(after.numGC-before.numGC), "count")
	rep.layerMetric("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms")
	rep.layerMetric("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(max(ops, 1)), "count")
}
