package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestGaugeSetValue(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Errorf("zero gauge = %v", g.Value())
	}
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("Value = %v, want 3.5", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Errorf("Value = %v, want -1", g.Value())
	}
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Errorf("Value = %v, want +Inf", g.Value())
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Set(v)
				_ = g.Value()
			}
		}(float64(i))
	}
	wg.Wait()
	if v := g.Value(); v < 0 || v > 7 {
		t.Errorf("torn gauge value %v", v)
	}
}

func TestGaugeVec(t *testing.T) {
	v := NewGaugeVec("q_depth", "help", "topic", "engine")
	v.With("a", "fast").Set(1)
	v.With("b", "fast").Set(2)
	v.With("a", "fast").Set(3) // same child, overwrites

	if got := v.With("a", "fast").Value(); got != 3 {
		t.Errorf("child a/fast = %v, want 3", got)
	}
	var seen [][]string
	var vals []float64
	v.Each(func(values []string, g *Gauge) {
		seen = append(seen, values)
		vals = append(vals, g.Value())
	})
	if len(seen) != 2 {
		t.Fatalf("Each visited %d children, want 2", len(seen))
	}
	// Deterministic sorted order: ("a","fast") before ("b","fast").
	if seen[0][0] != "a" || seen[1][0] != "b" || vals[0] != 3 || vals[1] != 2 {
		t.Errorf("Each order/values = %v %v", seen, vals)
	}
	if n := v.LabelNames(); len(n) != 2 || n[0] != "topic" || n[1] != "engine" {
		t.Errorf("LabelNames = %v", n)
	}
}

func TestCounterVec(t *testing.T) {
	v := NewCounterVec("hits", "help", "topic")
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Add(5)
	if got := v.With("a").Value(); got != 2 {
		t.Errorf("a = %d, want 2", got)
	}
	total := uint64(0)
	v.Each(func(_ []string, c *Counter) { total += c.Value() })
	if total != 7 {
		t.Errorf("total = %d, want 7", total)
	}
}

func TestVecArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	NewGaugeVec("x", "", "a", "b").With("only-one")
}
