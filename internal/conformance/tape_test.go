package conformance

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/telemetry"
)

// envelope holds a wall-clock envelope, a measurement against a model or
// a band: when err is not nil, a build with -tags live (make
// conformance-live) fails the test, and tier-1 logs the miss, because on a
// shared host such an envelope measures the machine as much as the code.
func envelope(t *testing.T, err error) {
	t.Helper()
	switch {
	case err == nil:
	case liveEnvelopes:
		t.Error(err)
	default:
		t.Logf("envelope miss (asserted under -tags live): %v", err)
	}
}

// Tape files under testdata/ hold one entry per line: enqueue, dispatch
// start and last transmit in integer nanoseconds from the first entry's
// enqueue, then evaluations, R and body bytes. Lines starting with '#'
// are comments.

func writeTape(path, comment string, tape []broker.TapeEntry) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n# enqueued_ns start_ns end_ns evals r body_bytes\n", comment)
	for _, e := range tape {
		at := func(ts time.Time) int64 { return ts.Sub(tape[0].Enqueued).Nanoseconds() }
		fmt.Fprintf(&sb, "%d %d %d %d %d %d\n", at(e.Enqueued), at(e.Start), at(e.End), e.Evals, e.R, e.BodyBytes)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func readTape(path string) ([]broker.TapeEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tape []broker.TapeEntry
	origin := time.Unix(0, 0)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		var enq, start, end int64
		var e broker.TapeEntry
		if _, err := fmt.Sscan(sc.Text(), &enq, &start, &end, &e.Evals, &e.R, &e.BodyBytes); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		e.Enqueued, e.Start, e.End = origin.Add(time.Duration(enq)), origin.Add(time.Duration(start)), origin.Add(time.Duration(end))
		tape = append(tape, e)
	}
	return tape, sc.Err()
}

// tapePath names a broker leg's checked-in tape.
func tapePath(leg string) string {
	return filepath.Join("testdata", "broker-"+leg+".tape")
}

// TestTapeReplay gates the queueing half of the paper on the two
// checked-in broker tapes (TestBrokerConformance -tags live -record-tapes
// writes them), with no clock in any assertion: both are one
// work-conserving FIFO server's sample path, and on the clean one the
// Lindley waits of the recorded arrivals and services agree with
// Pollaczek–Khinchine and the Eq. 20 Gamma quantile at the tape's own λ̂
// and E[B^k], in the live leg's envelope.
func TestTapeReplay(t *testing.T) {
	for _, leg := range []string{"clean", "chaos"} {
		tape, err := readTape(tapePath(leg))
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckTape(tape); err != nil {
			t.Errorf("%s: %v", leg, err)
		}
		rep, err := AnalyzeTape(tape, 0, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: n=%d E[B]=%.1fus lambda=%.0f/s rho=%.3f gap=%.1fus", leg, len(tape),
			rep.MeanService*1e6, rep.Lambda, rep.Rho, rep.Gap*1e6)
		t.Logf("%s: mean/q99 recorded %.1f/%.1fus lindley %.1f/%.1fus predicted %.1f/%.1fus", leg,
			rep.Recorded.MeanWait*1e6, rep.Recorded.Quantile*1e6,
			rep.Lindley.MeanWait*1e6, rep.Lindley.Quantile*1e6,
			rep.Predicted.MeanWait*1e6, rep.Predicted.Quantile*1e6)
		if leg == "clean" {
			if err := CheckAgreement(rep.Lindley, rep.Predicted, 0.70, 100e-6); err != nil {
				t.Error(err)
			}
		}

		// Mutation: two adjacent messages' service intervals swapped is
		// no longer one FIFO server's path.
		mutated := append([]broker.TapeEntry(nil), tape...)
		i := len(mutated) / 2
		a, b := &mutated[i], &mutated[i+1]
		a.Start, a.End, b.Start, b.End = b.Start, b.End, a.Start, a.End
		if err := CheckTape(mutated); err == nil {
			t.Errorf("%s: CheckTape accepted entries %d and %d with swapped services", leg, i, i+1)
		}
	}
}

// TestComputeMatchesAnalyzeTape pins the one estimator: the live drift
// monitor (telemetry.Compute) and the conformance report read the same
// E[B], ρ, recorded waits and M/G/1 point off one tape. The clean tape is
// plain publishes, so Compute's M^X/G/1 model runs at X ≡ 1.
func TestComputeMatchesAnalyzeTape(t *testing.T) {
	tape, err := readTape(tapePath("clean"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeTape(tape, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	window := time.Duration(float64(len(tape)) / rep.Lambda * float64(time.Second))
	e := telemetry.Compute("t", tape, 0, uint64(len(tape)), window, 0.99, 0)
	if !e.Valid || e.EX != 1 {
		t.Fatalf("estimate %+v, want valid at E[X] = 1", e)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"EB", e.EB, rep.MeanService},
		{"Rho", e.Rho, rep.Rho},
		{"PredictedEW", e.PredictedEW, rep.Predicted.MeanWait},
		{"PredictedQ", e.PredictedQ, rep.Predicted.Quantile},
		{"ObservedEW", e.ObservedEW, rep.Recorded.MeanWait},
		{"ObservedQ", e.ObservedQ, rep.Recorded.Quantile},
	} {
		if math.Abs(c.got-c.want) > 1e-6*math.Abs(c.want) {
			t.Errorf("%s: Compute %g, AnalyzeTape %g", c.name, c.got, c.want)
		}
	}
}

// TestCheckTape pins each clause of the identity on hand-made tapes.
func TestCheckTape(t *testing.T) {
	at := func(us int) time.Time { return time.Unix(0, 0).Add(time.Duration(us) * time.Microsecond) }
	entry := func(enq, start, end int) broker.TapeEntry {
		return broker.TapeEntry{Enqueued: at(enq), Start: at(start), End: at(end), R: 1}
	}
	good := []broker.TapeEntry{entry(0, 5, 10), entry(1, 10, 12), entry(20, 21, 30)}
	if err := CheckTape(good); err != nil {
		t.Errorf("work-conserving tape rejected: %v", err)
	}
	for name, tape := range map[string][]broker.TapeEntry{
		"start before enqueue": {entry(0, 5, 10), entry(11, 10, 12)},
		"end before start":     {entry(0, 5, 4)},
		"services overlap":     {entry(0, 5, 10), entry(1, 9, 12)},
	} {
		if err := CheckTape(tape); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Two workers are two servers: their services may overlap, and each
	// worker's entries are checked on their own.
	second := func(e broker.TapeEntry) broker.TapeEntry { e.Worker = 1; return e }
	twoWorkers := []broker.TapeEntry{entry(0, 5, 10), second(entry(1, 6, 8)), entry(1, 10, 12), second(entry(2, 8, 9))}
	if err := CheckTape(twoWorkers); err != nil {
		t.Errorf("two workers' tape rejected: %v", err)
	}
	if err := CheckTape(append(twoWorkers, second(entry(3, 8, 20)))); err == nil {
		t.Error("overlap within worker 1: accepted")
	}
	if _, err := AnalyzeTape(twoWorkers, 0, 0.99); err == nil {
		t.Error("AnalyzeTape accepted a tape that mixes workers")
	}
	rep, err := AnalyzeTape(good, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Recorded waits 5, 9, 1 µs; Lindley 0, 4, 0 µs (the first message's
	// 5 µs before dispatch is pure floor, and the second inherits it).
	if got, want := rep.Gap, 11e-6/3; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("gap = %g, want %g", got, want)
	}
	// A tape served past saturation has no stationary prediction; it is
	// still analysed, with the prediction NaN.
	over, err := AnalyzeTape([]broker.TapeEntry{entry(0, 0, 10), entry(1, 10, 20), entry(2, 20, 30)}, 0, 0.99)
	if err != nil || over.Rho < 1 || !math.IsNaN(over.Predicted.MeanWait) {
		t.Errorf("overloaded tape: rho %g, predicted %+v, err %v", over.Rho, over.Predicted, err)
	}
}
