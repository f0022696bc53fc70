package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(500)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1500 {
		t.Errorf("Value = %d, want %d", got, 8*1500)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("received").Add(10)
	r.Counter("dispatched").Add(20)
	if r.Counter("received") != r.Counter("received") {
		t.Error("Counter not stable per name")
	}
	snap := r.Snapshot(time.Now())
	if snap.Values["received"] != 10 || snap.Values["dispatched"] != 20 {
		t.Errorf("snapshot = %+v", snap.Values)
	}
	// Mutating the snapshot must not affect the registry.
	snap.Values["received"] = 999
	if r.Counter("received").Value() != 10 {
		t.Error("snapshot aliased registry state")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, 1, 1023, 1024, 5 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}
	h.Observe(-time.Second) // clamped to zero
	s := h.Snapshot()
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	wantSum := uint64(1 + 1023 + 1024 + 5000 + 1000000)
	if s.Sum != wantSum {
		t.Errorf("Sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Max != 1000000 {
		t.Errorf("Max = %d, want 1000000", s.Max)
	}
	if got := s.Mean(); got != time.Duration(wantSum/7) {
		t.Errorf("Mean = %v, want %v", got, time.Duration(wantSum/7))
	}
	// Bucket placement: 0 ns twice in bucket 0; 1 ns in bucket 1 (2^0 <=
	// 1 < 2^1); 1023 in bucket 10; 1024 in bucket 11.
	for _, tc := range []struct{ bucket, want int }{{0, 2}, {1, 1}, {10, 1}, {11, 1}} {
		if got := int(s.Buckets[tc.bucket]); got != tc.want {
			t.Errorf("Buckets[%d] = %d, want %d", tc.bucket, got, tc.want)
		}
	}
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket total %d != Count %d", total, s.Count)
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Errorf("zero histogram snapshot = %+v", s)
	}
	if s.Mean() != 0 {
		t.Errorf("Mean of empty histogram = %v, want 0", s.Mean())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(time.Duration(math.MaxInt64)) // far beyond the last bucket boundary
	s := h.Snapshot()
	if s.Buckets[HistogramBuckets-1] != 1 {
		t.Errorf("huge observation not in last bucket: %v", s.Buckets)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, each = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Errorf("Count = %d, want %d", s.Count, workers*each)
	}
	if s.Max != workers*each-1 {
		t.Errorf("Max = %d, want %d", s.Max, workers*each-1)
	}
}

func TestTimer(t *testing.T) {
	var h Histogram
	tm := StartTimer(&h)
	time.Sleep(time.Millisecond)
	tm.Stop()
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d, want 1", s.Count)
	}
	if s.Sum < uint64(500*time.Microsecond) {
		t.Errorf("timed sleep recorded only %v", time.Duration(s.Sum))
	}
}

func TestBucketBound(t *testing.T) {
	if BucketBound(0) != 1 {
		t.Errorf("BucketBound(0) = %v, want 1", BucketBound(0))
	}
	if BucketBound(10) != 1024 {
		t.Errorf("BucketBound(10) = %v, want 1024", BucketBound(10))
	}
	if !math.IsInf(BucketBound(HistogramBuckets-1), 1) {
		t.Errorf("last bucket bound = %v, want +Inf", BucketBound(HistogramBuckets-1))
	}
	// Bounds are consistent with bucketIndex: an observation lands strictly
	// below its bucket's bound and at/above the previous bound.
	for _, ns := range []uint64{0, 1, 2, 3, 1023, 1024, 1 << 30} {
		i := bucketIndex(ns)
		if float64(ns) >= BucketBound(i) {
			t.Errorf("ns=%d in bucket %d but bound is %v", ns, i, BucketBound(i))
		}
		if i > 0 && float64(ns) < BucketBound(i-1)/2 {
			t.Errorf("ns=%d below bucket %d's range", ns, i)
		}
	}
}
