package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
)

// median returns the middle of the values (mean of the central pair for
// an even count); 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailPercentile picks the highest whole percentile from 50 to 99 that
// still has at least ten samples beyond it, by nearest rank, and returns
// it with its value. ok is false when there are fewer than 20 samples,
// so no tail above the median is measured.
func tailPercentile(vals []float64) (p int, v float64, ok bool) {
	n := len(vals)
	for p = 99; p >= 50; p-- {
		rank := (p*n + 99) / 100 // ceil(p·n/100), 1-based
		if rank >= 1 && n-rank >= 10 {
			s := append([]float64(nil), vals...)
			sort.Float64s(s)
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// heapWatch records the peak live heap: after every GC cycle a
// finalizer reads the live-heap size the collector just measured.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// sentinel is a heap object whose finalizer runs once per GC cycle. It
// holds a pointer so the allocator never batches it with other objects.
type sentinel struct {
	w *heapWatch
	_ [16]byte
}

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{w: w}, func(s *sentinel) {
		if s.w.stopped.Load() {
			return
		}
		s.w.sample()
		s.w.arm()
	})
}

func (w *heapWatch) sample() {
	live := readMetric("/gc/heap/live:bytes")
	for {
		old := w.peak.Load()
		if live <= old || w.peak.CompareAndSwap(old, live) {
			return
		}
	}
}

// stop ends the watch after one last collection and returns the peak.
func (w *heapWatch) stop() uint64 {
	runtime.GC()
	w.sample()
	w.stopped.Store(true)
	return w.peak.Load()
}

// readMetric reads one uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// settleGC collects twice so the timed phase starts without garbage
// left by set-up and warm-up.
func settleGC() {
	runtime.GC()
	runtime.GC()
}
