// Command benchmark is the repository's benchmark: four broker workloads
// driven over TCP loopback through internal/client, reporting capacity and
// latency at two frozen offered rates end to end, and — in a separate traced
// run — a per-layer budget measured from outside, through each layer's
// public functions and counters. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: wire_small, filter_scan, fanout_large, mesh_ssr or all")
		seed         = flag.Int64("seed", 1, "seed for the population names, message bytes and Poisson schedule")
		seconds      = flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end run")
		tracedFlag   = flag.Bool("traced", false, "same as -trace 1")
		short        = flag.Bool("short", false, "6 measured seconds (2 s phases): smoke only, the numbers mean nothing")
		outPath      = flag.String("out", "", "also write every result to this JSON file")
		sets         = flag.Int("sets", 1, "run everything this many times and fail if an end-to-end metric's spread exceeds its bound")
		doCompare    = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()

	sp, specFile, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two -out files")
			return 2
		}
		a, err := readDocument(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		b, err := readDocument(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		compare(os.Stdout, a, b, sp)
		return 0
	}

	cfg := runConfig{
		seed: *seed, seconds: *seconds, traced: *tracedFlag || *trace == 1,
		spansDir: filepath.Join(filepath.Dir(specFile), "benchmark", "out"),
	}
	switch {
	case *short:
		cfg.seconds = 6
	case cfg.seconds <= 0:
		cfg.seconds = float64(sp.RunSeconds)
	}
	selected := workloads
	if *workloadName != "all" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{*w}
	}

	doc := &document{Host: hostStamp(), Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q link=%q\n", doc.Host.NProc, doc.Host.GOMAXPROCS, doc.Host.GoVersion, doc.Host.CPUModel, doc.Host.Link)
	fmt.Printf("run: seed=%d seconds=%g traced=%t sets=%d\n", cfg.seed, cfg.seconds, cfg.traced, *sets)
	defs := endToEndDefs
	if cfg.traced {
		defs = perLayerDefs
	}
	for s := 0; s < *sets; s++ {
		var outs []*runOutput
		for i := range selected {
			out, err := runWorkload(&selected[i], cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			outs = append(outs, out)
		}
		printRows(os.Stdout, defs, outs)
		doc.Sets = append(doc.Sets, outs)
	}
	if *outPath != "" {
		if err := writeDocument(*outPath, doc); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	setsAgree := true
	if *sets > 1 && !cfg.traced {
		setsAgree = checkSets(os.Stdout, doc, sp)
	}
	line, correct := resultLine(doc.Sets[len(doc.Sets)-1])
	fmt.Println(string(line))
	if !correct || !setsAgree {
		return 1
	}
	return 0
}
