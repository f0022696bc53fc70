package loadgen

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// recorder is a send func that records every call's index and due time.
type recorder struct {
	mu    sync.Mutex
	calls int
	due   map[int]time.Time
	hook  func(i int) error // optional: the send's outcome
}

func (r *recorder) send(_ context.Context, i int, due time.Time) error {
	r.mu.Lock()
	r.calls++
	if r.due == nil {
		r.due = make(map[int]time.Time)
	}
	_, dup := r.due[i]
	r.due[i] = due
	r.mu.Unlock()
	if dup {
		return errors.New("index sent twice")
	}
	if r.hook != nil {
		return r.hook(i)
	}
	return nil
}

// checkCounts holds the Result to what the send func saw.
func checkCounts(t *testing.T, res Result, r *recorder) {
	t.Helper()
	if res.Issued != r.calls || res.Issued != len(r.due) {
		t.Errorf("Issued = %d, send saw %d calls over %d indices", res.Issued, r.calls, len(r.due))
	}
	if res.Issued > 0 && !(res.Achieved > 0 && res.Achieved <= 1) {
		t.Errorf("Achieved = %v, want in (0, 1]", res.Achieved)
	}
	if res.LagP99 < 0 || res.Elapsed <= 0 {
		t.Errorf("LagP99 = %v, Elapsed = %v", res.LagP99, res.Elapsed)
	}
}

func TestRunSendsEachIndexOnce(t *testing.T) {
	const n = 3000
	r := &recorder{}
	res, err := Run(context.Background(), stats.NewRNG(1), 1e6, n, r.send)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res, r)
	if res.Issued != n {
		t.Errorf("Issued = %d, want %d", res.Issued, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := r.due[i]; !ok {
			t.Fatalf("index %d never sent", i)
		}
	}
}

func TestRunSameSeedSameSchedule(t *testing.T) {
	const n = 500
	offsets := func(seed int64) []time.Duration {
		r := &recorder{}
		if _, err := Run(context.Background(), stats.NewRNG(seed), 1e6, n, r.send); err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = r.due[i].Sub(r.due[0])
		}
		return out
	}
	a, b, c := offsets(7), offsets(7), offsets(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7: due offset %d = %v then %v", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due offsets decrease at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
}

func TestRunStopsOnSendError(t *testing.T) {
	const n = 100_000 // a one-second schedule at 1e5/s
	boom := errors.New("boom")
	r := &recorder{hook: func(i int) error {
		if i == 10 {
			return boom
		}
		return nil
	}}
	res, err := Run(context.Background(), stats.NewRNG(1), 1e5, n, r.send)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the send error", err)
	}
	checkCounts(t, res, r)
	if res.Issued >= n {
		t.Errorf("Issued = %d: the schedule ran on after the error", res.Issued)
	}
}

func TestRunUnboundedEndsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &recorder{hook: func(i int) error {
		if i == 100 {
			cancel()
		}
		return nil
	}}
	res, err := Run(ctx, stats.NewRNG(1), 1e4, 0, r.send)
	if err != nil {
		t.Fatalf("cancelled unbounded run: %v", err)
	}
	checkCounts(t, res, r)
	if _, ok := r.due[100]; !ok {
		t.Errorf("the cancelling arrival was never sent (Issued = %d)", res.Issued)
	}

	// A bounded schedule cut short reports why.
	ctx2, cancel2 := context.WithCancel(context.Background())
	r2 := &recorder{hook: func(i int) error {
		if i == 5 {
			cancel2()
		}
		return nil
	}}
	res, err = Run(ctx2, stats.NewRNG(1), 1e4, 1_000_000, r2.send)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cut-short bounded run: error %v, want context.Canceled", err)
	}
	checkCounts(t, res, r2)
}

func TestRunRejectsRate(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		if _, err := Run(context.Background(), stats.NewRNG(1), rate, 1, (&recorder{}).send); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
}
