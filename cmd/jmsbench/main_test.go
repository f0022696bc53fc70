package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmallStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("native measurement is wall-clock bound")
	}
	var out bytes.Buffer
	err := run([]string{
		"-grid", "small", "-publishers", "2",
		"-warmup", "20ms", "-measure", "80ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"native study", "measured points", "Table I", "fit diagnostics", "Fig4(native)"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("native measurement is wall-clock bound")
	}
	var out bytes.Buffer
	err := run([]string{"-identical", "-publishers", "2", "-warmup", "20ms", "-measure", "80ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ratio:") {
		t.Errorf("identical experiment output missing ratio: %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-type", "bogus"}, &out); err == nil {
		t.Error("bogus type accepted")
	}
	if err := run([]string{"-grid", "bogus"}, &out); err == nil {
		t.Error("bogus grid accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestRunCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("native measurement is wall-clock bound")
	}
	var out bytes.Buffer
	err := run([]string{
		"-compare", "-publishers", "2",
		"-warmup", "10ms", "-measure", "40ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"engine comparison", "faithful msg/s", "fast msg/s", "speedup", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("comparison output missing %q", want)
		}
	}
}

// TestRunEngineErrors checks the fail-fast path: a typoed -engine is
// rejected before any measurement starts, and the error tells the user
// what the valid spellings are.
func TestRunEngineErrors(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-engine", "bogus"}, &out)
	if err == nil {
		t.Fatal("bogus engine accepted")
	}
	for _, want := range []string{"bogus", "valid engines", "faithful", "fast"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("engine error %q missing %q", err, want)
		}
	}
}

// TestRunStages checks that -stages prints the taped series and the fit
// of taped E[B] next to the throughput fit.
func TestRunStages(t *testing.T) {
	if testing.Short() {
		t.Skip("native measurement is wall-clock bound")
	}
	var out bytes.Buffer
	err := run([]string{
		"-stages", "-grid", "small", "-publishers", "2",
		"-warmup", "20ms", "-measure", "80ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Eq. 1 from the tape", "evals", "taped_EB_us", "meas_EB_us",
		"two derivations", "fit of taped E[B]", "fit of 1/throughput", "taped-fit / throughput-fit",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("-stages output missing %q", want)
		}
	}
}
