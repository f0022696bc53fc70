package selector

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/jms"
)

// TestJMSTimestampMillis is a differential test of JMSTimestamp against the
// time package: the header holds Unix nanoseconds, and a selector must read
// exactly time.Unix(0, ts).UnixMilli() — floor division, negatives
// included — for random values, the int64 extremes and every value within
// a nanosecond of a millisecond boundary.
func TestJMSTimestampMillis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var stamps []int64
	for range 10000 {
		stamps = append(stamps, int64(rng.Uint64()))
	}
	for _, ms := range []int64{-2, -1, 0, 1, 2, 1_700_000_000_000, -1_700_000_000_000} {
		for d := int64(-1); d <= 1; d++ {
			stamps = append(stamps, ms*1e6+d)
		}
	}
	stamps = append(stamps, math.MinInt64, math.MinInt64+1, math.MaxInt64, math.MaxInt64-1)
	m := jms.NewMessage("t")
	for _, ts := range stamps {
		m.Header.Timestamp = ts
		want := time.Unix(0, ts).UnixMilli()
		if got := lookup(fieldTimestamp, m); got.kind != kindInt || got.i != want {
			t.Fatalf("JMSTimestamp of %d ns = %+v, want %d ms", ts, got, want)
		}
	}

	// Through a parsed selector, on both sides of a boundary.
	m.Header.Timestamp = -1
	if got := Eval(MustParse("JMSTimestamp = -1"), m); got != True {
		t.Errorf("JMSTimestamp = -1 at -1 ns: %v, want TRUE", got)
	}
	m.Header.Timestamp = 1_700_000_000_000*1e6 + 999_999
	src := "JMSTimestamp = " + strconv.FormatInt(1_700_000_000_000, 10)
	if got := Eval(MustParse(src), m); got != True {
		t.Errorf("%s at %d ns: %v, want TRUE", src, m.Header.Timestamp, got)
	}
}
