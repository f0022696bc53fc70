package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func loadContract(t *testing.T) *spec {
	t.Helper()
	c, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// sameMetrics checks that the declared metrics and the contract's list agree
// name by name, unit and direction included, and that names are well formed.
func sameMetrics(t *testing.T, kind string, defs []metricDef, listed []specMetric) {
	t.Helper()
	byName := map[string]specMetric{}
	for _, m := range listed {
		if _, dup := byName[m.Name]; dup {
			t.Errorf("%s: %q listed twice in BENCHMARK.json", kind, m.Name)
		}
		byName[m.Name] = m
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("%s: name %q is not well formed", kind, d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q of %s is not well formed", kind, d.unit, d.name)
		}
		m, ok := byName[d.name]
		if !ok {
			t.Errorf("%s: %s is declared but missing from BENCHMARK.json", kind, d.name)
			continue
		}
		if m.Unit != d.unit || m.Better != d.better {
			t.Errorf("%s: %s is %s/%s in BENCHMARK.json, %s/%s declared", kind, d.name, m.Unit, m.Better, d.unit, d.better)
		}
		delete(byName, d.name)
	}
	for name := range byName {
		t.Errorf("%s: %s is in BENCHMARK.json but not declared", kind, name)
	}
}

func TestDeclarationsMatchContract(t *testing.T) {
	c := loadContract(t)
	sameMetrics(t, "end_to_end", endToEndDefs, c.EndToEnd)
	sameMetrics(t, "per_layer", perLayerDefs, c.PerLayer)

	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, %d declared", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) declared", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	hasSetup := false
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %g of %s is outside (0, 0.25]", m.Bound, m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside [1, 60]", c.RunSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
}

// TestInteractionTable checks that every cell a per-layer metric claims to
// move exists: a declared end-to-end metric, or one of the whole-path latency
// rows that lost their gate, on a declared workload.
func TestInteractionTable(t *testing.T) {
	movable := map[string]bool{}
	for _, d := range endToEndDefs {
		movable[d.name] = true
	}
	for _, d := range perLayerDefs {
		if strings.HasPrefix(d.name, "latency.") {
			movable[d.name] = true
		}
	}
	for _, d := range perLayerDefs {
		for _, tg := range d.moves {
			if !movable[tg.metric] {
				t.Errorf("%s moves %q, which is neither an end-to-end metric nor a latency row", d.name, tg.metric)
			}
			if findWorkload(tg.workload) == nil {
				t.Errorf("%s moves %s on %q, which is not a workload", d.name, tg.metric, tg.workload)
			}
		}
	}
}

func TestStampRoundTrip(t *testing.T) {
	body := make([]byte, 16)
	putStamp(body, 123456789, 200, 1<<39+7)
	due, lane, id, ok := readStamp(body)
	if !ok || due != 123456789 || lane != 200 || id != 1<<39+7 {
		t.Fatalf("readStamp = %d, %d, %d, %t", due, lane, id, ok)
	}
	body[3] ^= 1
	if _, _, _, ok := readStamp(body); ok {
		t.Fatal("a corrupted stamp passed its checksum")
	}
}

// TestSmoke runs every workload end to end, and the mesh workload traced, at
// two measured seconds: long enough to cross every phase and the
// correctness gate, far too short for the numbers to mean anything.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots brokers and drives them over TCP for ~15 s")
	}
	cfg := runConfig{seed: 7, seconds: 2, spansDir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		out, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d notes=%q", w.name, out.Correct, out.Attempted, out.Failed, out.Notes)
		}
		for _, d := range endToEndDefs {
			if s, ok := out.Metrics[d.name]; !ok || s.Value <= 0 || s.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.name, s, d.unit)
			}
		}
		if len(out.Metrics) != len(endToEndDefs) {
			t.Errorf("%s: %d metrics reported, %d declared", w.name, len(out.Metrics), len(endToEndDefs))
		}
	}

	cfg.traced = true
	mesh := findWorkload("mesh_ssr")
	out, err := runWorkload(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Errorf("traced mesh_ssr: correct=%t failed=%d notes=%q", out.Correct, out.Failed, out.Notes)
	}
	for _, d := range perLayerDefs {
		if _, ok := out.Metrics[d.name]; !ok {
			t.Errorf("traced mesh_ssr: %s not reported", d.name)
		}
	}
	if len(out.Metrics) != len(perLayerDefs) {
		t.Errorf("traced mesh_ssr: %d metrics reported, %d declared", len(out.Metrics), len(perLayerDefs))
	}
	// Counts that must repeat exactly.
	for name, want := range map[string]float64{
		"broker.replication_grade":      float64(mesh.r),
		"cluster.forwarded_out_per_msg": 2,
		"cluster.forward_errors":        0,
		"cluster.reconnects":            0,
		"broker.dropped":                0,
		"topic.match_evals_per_msg":     0,
	} {
		if got := out.Metrics[name].Value; got != want {
			t.Errorf("traced mesh_ssr: %s = %g, want %g", name, got, want)
		}
	}
	if _, err := os.Stat(cfg.spansDir + "/trace-mesh_ssr.json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}
