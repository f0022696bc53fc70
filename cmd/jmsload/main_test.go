package main

import (
	"bytes"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/wire"
)

func startBroker(t *testing.T) string {
	t.Helper()
	b := broker.New(broker.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.Serve(b, ln)
	t.Cleanup(func() {
		_ = srv.Close()
		_ = b.Close()
	})
	return ln.Addr().String()
}

func TestLoadAgainstLocalBroker(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bound")
	}
	addr := startBroker(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-publishers", "2", "-matching", "2", "-nonmatching", "5",
		"-warmup", "50ms", "-measure", "250ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"received", "dispatched", "overall"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q: %s", want, s)
		}
	}
	// R should be ~2 (two matching subscribers).
	if !strings.Contains(s, "R = 2.0") && !strings.Contains(s, "R = 1.9") && !strings.Contains(s, "R = 2.1") {
		t.Errorf("replication grade not ~2 in output: %s", s)
	}
}

func TestLoadSelectors(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bound")
	}
	addr := startBroker(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-selectors", "-publishers", "1", "-matching", "1",
		"-warmup", "30ms", "-measure", "120ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "received") {
		t.Errorf("output: %s", out.String())
	}
}

// TestLoadPacedWithTracing runs the Poisson-paced mode with trace
// sampling and checks the achieved rate tracks the target and the
// latency summary is reported.
func TestLoadPacedWithTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bound")
	}
	addr := startBroker(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-publishers", "2", "-matching", "1",
		"-rate", "2000", "-seed", "7", "-tracesample", "5",
		"-warmup", "100ms", "-measure", "500ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"target", "Poisson, seed 7", "received", "latency", "p99"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q: %s", want, s)
		}
	}
	// The generator's self-check is reported; which verdict depends on the
	// host, so only its form is asserted.
	if !regexp.MustCompile(`(?m)^pacer    : lag p99 \S+, achieved [0-9.]+ of the schedule, (valid|invalid)$`).MatchString(s) {
		t.Errorf("output missing the pacer line: %s", s)
	}
	// The achieved rate should be in the neighborhood of the 2000 msgs/s
	// target; wide bounds, this is a smoke test on shared CI hardware.
	m := regexp.MustCompile(`received : +(\d+) msgs/s`).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("no received rate in output: %s", s)
	}
	rate, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 500 || rate > 4000 {
		t.Errorf("achieved rate %.0f msgs/s not in the neighborhood of the 2000 target: %s", rate, s)
	}
}

// startMesh boots n brokers joined as a wire mesh of the given kind and
// returns the comma-joined member address list.
func startMesh(t *testing.T, n int, kind cluster.TopologyKind) string {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range lns {
		b := broker.New(broker.Options{})
		wm, err := cluster.NewWireMesh(cluster.WireMeshConfig{
			Kind:  kind,
			Self:  i,
			Addrs: addrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.ServeWith(b, lns[i], wire.ServeOptions{Forwarder: wm})
		t.Cleanup(func() {
			_ = wm.Close()
			_ = srv.Close()
			_ = b.Close()
		})
	}
	return strings.Join(addrs, ",")
}

// TestLoadMesh drives each topology over a live 3-member mesh and checks
// the drain accounting closes: zero lost deliveries.
func TestLoadMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bound")
	}
	for _, kind := range []cluster.TopologyKind{
		cluster.TopologyPSR, cluster.TopologySSR, cluster.TopologyHash,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			addrList := startMesh(t, 3, kind)
			var out bytes.Buffer
			err := run([]string{
				"-addr", addrList, "-mesh", kind.String(),
				"-publishers", "3", "-matching", "2", "-nonmatching", "4",
				"-rate", "500", "-warmup", "50ms", "-measure", "300ms",
			}, &out)
			if err != nil {
				t.Fatal(err)
			}
			s := out.String()
			if !strings.Contains(s, "mesh     : "+kind.String()+" over 3 members") {
				t.Errorf("output missing mesh line: %s", s)
			}
			// Positive: acked publishes never delivered. Negative: deliveries
			// of publishes the generator did not count as acked.
			if lost := regexp.MustCompile(`lost (-?[0-9]+) of`).FindStringSubmatch(s); lost == nil || lost[1] != "0" {
				t.Errorf("drain accounting does not close (lost %v): %s", lost, s)
			}
			// R should be ~2 (two matching subscribers) whatever the topology.
			m := regexp.MustCompile(`R = ([0-9.]+)`).FindStringSubmatch(s)
			if m == nil {
				t.Fatalf("no replication grade in output: %s", s)
			}
			if r, _ := strconv.ParseFloat(m[1], 64); r < 1.8 || r > 2.2 {
				t.Errorf("replication grade %s not ~2: %s", m[1], s)
			}
		})
	}
}

func TestLoadErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-publishers", "0"}, &out); err == nil {
		t.Error("publishers=0 accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1"}, &out); err == nil {
		t.Error("unreachable broker accepted")
	}
	if err := run([]string{"-rate", "-1"}, &out); err == nil {
		t.Error("negative rate accepted")
	}
	if err := run([]string{"-tracesample", "-2"}, &out); err == nil {
		t.Error("negative tracesample accepted")
	}
	if err := run([]string{"-tracesample", "3", "-matching", "0"}, &out); err == nil {
		t.Error("tracesample without matching subscriber accepted")
	}
	if err := run([]string{"-mesh", "bogus", "-addr", "a:1,b:1"}, &out); err == nil {
		t.Error("bogus mesh kind accepted")
	}
	if err := run([]string{"-mesh", "ssr", "-addr", "a:1"}, &out); err == nil {
		t.Error("single-member mesh accepted")
	}
	if err := run([]string{"-addr", "a:1,b:1"}, &out); err == nil {
		t.Error("multiple addresses without -mesh accepted")
	}
}
