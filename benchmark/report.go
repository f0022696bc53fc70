package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// spec is BENCHMARK.json. The program itself needs the run length and each
// end-to-end metric's regression bound; the rest is read by the tests that
// keep the file and the declarations in step.
type spec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent (the
// program is run from the repository root by the driver and from benchmark/
// by go run and go test) and returns it with the path it was found at.
func loadSpec() (*spec, string, error) {
	var notFound error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			notFound = errors.Join(notFound, err)
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, p, fmt.Errorf("%s: %w", p, err)
		}
		return &s, p, nil
	}
	return nil, "", notFound
}

func (s *spec) bound(metric string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	return 0
}

// host is the stamp printed with every result: numbers from different hosts
// do not compare.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Link       string `json:"link"`
}

func hostStamp() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown",
		// Loopback, not a real link: link rates and wire latency are not
		// measured here.
		Link: "tcp loopback",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// document is what -out writes and -compare reads: every set of runs of one
// invocation.
type document struct {
	Host    host           `json:"host"`
	Seed    int64          `json:"seed"`
	Seconds float64        `json:"seconds"`
	Traced  bool           `json:"traced"`
	Sets    [][]*runOutput `json:"sets"`
}

func writeDocument(path string, d *document) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// printRows prints one row per (workload, metric), in declaration order.
func printRows(w io.Writer, defs []metricDef, outs []*runOutput) {
	for _, o := range outs {
		for _, d := range defs {
			if s, ok := o.Metrics[d.name]; ok {
				fmt.Fprintf(w, "%-13s %-34s %16.4f %-6s n=%d\n", o.Workload, d.name, s.Value, s.Unit, s.N)
			}
		}
		fmt.Fprintf(w, "%-13s attempted=%d failed=%d correct=%t\n", o.Workload, o.Attempted, o.Failed, o.Correct)
		for _, n := range o.Notes {
			fmt.Fprintf(w, "%-13s note: %s\n", o.Workload, n)
		}
	}
}

// resultLine is the machine-readable last line: exactly the keys correct,
// attempted, failed and metrics. With one workload the metrics carry their
// declared names; with several, <workload>.<metric>.
func resultLine(outs []*runOutput) ([]byte, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, o := range outs {
		line.Correct = line.Correct && o.Correct
		line.Attempted += o.Attempted
		line.Failed += o.Failed
		for name, s := range o.Metrics {
			if len(outs) > 1 {
				name = o.Workload + "." + name
			}
			line.Metrics[name] = value{Value: s.Value, Unit: s.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return data, line.Correct
}

// series collects, per (workload, end-to-end metric), the values a document's
// sets hold.
func (d *document) series() map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, set := range d.Sets {
		for _, o := range set {
			for _, def := range endToEndDefs {
				if s, ok := o.Metrics[def.name]; ok {
					k := [2]string{o.Workload, def.name}
					out[k] = append(out[k], s.Value)
				}
			}
		}
	}
	return out
}

// spread is the range of the values as a share of their median; ok is false
// when there are fewer than two.
func spread(v []float64) (float64, bool) {
	if len(v) < 2 {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0, true
	}
	return (s[len(s)-1] - s[0]) / m, true
}

// checkSets prints the spread of every end-to-end metric over the sets of
// one invocation and reports whether all stayed within their bounds.
func checkSets(w io.Writer, d *document, sp *spec) bool {
	ok := true
	ser := d.series()
	fmt.Fprintf(w, "\nspread over %d sets (range / median) against the bound:\n", len(d.Sets))
	for _, wl := range workloads {
		for _, def := range endToEndDefs {
			v := ser[[2]string{wl.name, def.name}]
			s, have := spread(v)
			if !have {
				continue
			}
			verdict := "within"
			if s > sp.bound(def.name) {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(w, "%-13s %-22s spread %6.2f%%  bound %5.1f%%  %s\n", wl.name, def.name, s*100, sp.bound(def.name)*100, verdict)
		}
	}
	return ok
}

// compare prints, per (workload, end-to-end metric), how b's median stands
// against a's and its bound. Where either side's own spread exceeds the
// bound the cell is unresolved, never unchanged.
func compare(w io.Writer, a, b *document, sp *spec) {
	sa, sb := a.series(), b.series()
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %8s %7s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread_a", "spread_b", "verdict")
	show := func(s float64, ok bool) string {
		if !ok {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", s*100)
	}
	for _, wl := range workloads {
		for _, def := range endToEndDefs {
			k := [2]string{wl.name, def.name}
			va, vb := sa[k], sb[k]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse is positive when b is worse than a, as a share of a.
			worse := (mb - ma) / ma
			if def.better == "higher" {
				worse = -worse
			}
			bound := sp.bound(def.name)
			spA, okA := spread(va)
			spB, okB := spread(vb)
			verdict := "unchanged"
			switch {
			case okA && spA > bound, okB && spB > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "REGRESSED"
			case worse < -bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-13s %-22s %14.4f %14.4f %+7.1f%% %6.1f%% %8s %8s  %s\n",
				wl.name, def.name, ma, mb, worse*100, bound*100, show(spA, okA), show(spB, okB), verdict)
		}
	}
}
