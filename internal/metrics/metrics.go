// Package metrics provides the measurement-side bookkeeping of the broker
// and its harnesses: monotonic counters and a named-counter registry, and
// the exposition primitives of the live telemetry plane — gauges, labeled
// counter/gauge families, and duration histograms.
//
// # Histogram bucket boundaries
//
// Histograms use HistogramBuckets fixed log2-scale duration buckets.
// Bucket 0 counts observations in [0 ns, 1 ns); bucket i (1 <= i <
// HistogramBuckets-1) counts observations d with 2^(i-1) ns <= d < 2^i ns;
// the last bucket is unbounded above. The exclusive upper bound of bucket i
// is therefore 2^i ns (BucketBound), covering sub-nanosecond to ~34 s with
// at most a factor-of-two relative bucket width.
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic event counter safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// HistogramBuckets is the number of log-scale duration buckets of a
// Histogram. Bucket i counts observations d with 2^(i-1) ns <= d < 2^i ns
// (bucket 0 holds sub-nanosecond and zero observations, the last bucket is
// unbounded above), covering sub-ns to ~34 s.
const HistogramBuckets = 36

// Histogram accumulates a duration distribution with lock-free atomic
// updates: count, sum, max, and fixed log2-scale buckets. It is the
// per-stage timer of the broker's dispatch pipeline, cheap enough to sit on
// the hot path (a handful of uncontended atomic adds per observation).
// The zero value is ready for use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [HistogramBuckets]atomic.Uint64
}

// bucketIndex returns the log2 bucket of a duration in nanoseconds.
func bucketIndex(ns uint64) int {
	i := bits.Len64(ns) // 0 for ns==0, k for 2^(k-1) <= ns < 2^k
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	return i
}

// Observe records one duration. Negative durations are clamped to zero
// (the monotonic clock does not go backwards, but callers may subtract
// wall-clock readings).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Timer times one event into a Histogram.
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer starts timing an event. Stop records the elapsed time.
func StartTimer(h *Histogram) Timer { return Timer{h: h, start: time.Now()} }

// Stop records the time elapsed since StartTimer.
func (t Timer) Stop() { t.h.Observe(time.Since(t.start)) }

// HistogramSnapshot is a point-in-time copy of a Histogram's state.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64
	// Sum is the total observed time in nanoseconds.
	Sum uint64
	// Max is the largest single observation in nanoseconds.
	Max uint64
	// Buckets are the per-log2-bucket observation counts.
	Buckets [HistogramBuckets]uint64
}

// Snapshot copies the histogram state. Concurrent observers may land
// between the field reads, so totals are exact only while the histogram is
// quiescent. The histogram is cumulative; windowed statistics are read off
// the topic tape instead (broker.Broker.TakeTape).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the mean observation, or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// BucketBound returns the exclusive upper bound of histogram bucket i in
// nanoseconds: 1 for bucket 0, 2^i for interior buckets, and +Inf for the
// unbounded last bucket.
func BucketBound(i int) float64 {
	if i >= HistogramBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(i))
}

// Snapshot is a point-in-time view of a named counter set, for reporting.
type Snapshot struct {
	Time   time.Time
	Values map[string]uint64
}

// Registry is a named-counter registry for the harness's periodic
// collection thread ("a management thread collects the measured values
// ... in periodic intervals").
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns (creating on demand) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot captures all counters at time now.
func (r *Registry) Snapshot(now time.Time) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	values := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		values[name] = c.Value()
	}
	return Snapshot{Time: now, Values: values}
}
