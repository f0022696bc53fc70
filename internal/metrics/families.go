package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file holds the exposition-side primitives of the telemetry plane:
// gauges and labeled counter/gauge families. The families are
// deliberately minimal — a name, a help string, fixed label names, and
// children keyed by their label values — just enough structure for
// internal/telemetry to render them in Prometheus text format.

// Gauge is a settable float64 value safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// labelKey joins label values into a map key. The separator cannot occur
// in rendered output ambiguity because children keep their value slice.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// family is the shared bookkeeping of GaugeVec and CounterVec.
type family[T any] struct {
	mu       sync.Mutex
	children map[string]*T
	values   map[string][]string
}

func (f *family[T]) with(labelNames, labelValues []string) *T {
	if len(labelValues) != len(labelNames) {
		panic("metrics: label value count does not match family label names")
	}
	key := labelKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.children == nil {
		f.children = make(map[string]*T)
		f.values = make(map[string][]string)
	}
	c, ok := f.children[key]
	if !ok {
		c = new(T)
		f.children[key] = c
		f.values[key] = append([]string(nil), labelValues...)
	}
	return c
}

// each visits children in deterministic (sorted-key) order.
func (f *family[T]) each(fn func(labelValues []string, c *T)) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type entry struct {
		values []string
		c      *T
	}
	entries := make([]entry, len(keys))
	for i, k := range keys {
		entries[i] = entry{values: f.values[k], c: f.children[k]}
	}
	f.mu.Unlock()
	for _, e := range entries {
		fn(e.values, e.c)
	}
}

// GaugeVec is a labeled gauge family: one Gauge per distinct label-value
// tuple, created on demand by With.
type GaugeVec struct {
	// Name is the metric name, Help its exposition help line.
	Name, Help string
	labelNames []string
	fam        family[Gauge]
}

// NewGaugeVec returns an empty gauge family.
func NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{Name: name, Help: help, labelNames: labelNames}
}

// LabelNames returns the family's label names.
func (v *GaugeVec) LabelNames() []string { return v.labelNames }

// With returns (creating on demand) the child gauge for the given label
// values. It panics when the value count does not match the label names —
// a programming error, like an index out of range.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.with(v.labelNames, labelValues)
}

// Each visits every child in deterministic order.
func (v *GaugeVec) Each(fn func(labelValues []string, g *Gauge)) { v.fam.each(fn) }

// CounterVec is a labeled counter family: one Counter per distinct
// label-value tuple, created on demand by With.
type CounterVec struct {
	// Name is the metric name, Help its exposition help line.
	Name, Help string
	labelNames []string
	fam        family[Counter]
}

// NewCounterVec returns an empty counter family.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{Name: name, Help: help, labelNames: labelNames}
}

// LabelNames returns the family's label names.
func (v *CounterVec) LabelNames() []string { return v.labelNames }

// With returns (creating on demand) the child counter for the given label
// values, with the same arity contract as GaugeVec.With.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.with(v.labelNames, labelValues)
}

// Each visits every child in deterministic order.
func (v *CounterVec) Each(fn func(labelValues []string, c *Counter)) { v.fam.each(fn) }
