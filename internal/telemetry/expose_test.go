package telemetry

import (
	"context"
	"flag"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/jms"
	"repro/internal/metrics"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteGolden renders hand-built metric families and compares the
// exposition byte-for-byte against testdata/metrics.golden. Hand-built
// inputs keep the output deterministic; the live sources are covered by
// the grammar and endpoint tests.
func TestWriteGolden(t *testing.T) {
	var buf strings.Builder
	WriteCounter(&buf, "jms_test_events_total", "Events seen.", 42)
	WriteGauge(&buf, "jms_test_depth", "Queue depth.", 2.5)

	var h metrics.Histogram
	h.Observe(100 * time.Nanosecond)
	h.Observe(100 * time.Nanosecond)
	h.Observe(2 * time.Microsecond)
	WriteHistogram(&buf, "jms_test_wait_seconds", "Waits.",
		[]Label{{"topic", "a"}}, h.Snapshot())

	gv := metrics.NewGaugeVec("jms_test_ratio", "A labeled gauge.", "topic", "engine")
	gv.With("a", "fast").Set(0.5)
	gv.With("b", "faithful").Set(math.Inf(1))
	WriteGaugeVec(&buf, gv)

	cv := metrics.NewCounterVec("jms_test_hits_total", "A labeled counter.", "path")
	cv.With(`strange"label\with`).Add(7)
	cv.With("plain").Add(3)
	WriteCounterVec(&buf, cv)

	reg := metrics.NewRegistry()
	reg.Counter("client.reconnects").Add(9)
	WriteRegistry(&buf, "jms_registry", reg.Snapshot(time.Unix(0, 0)))

	got := buf.String()
	golden := "testdata/metrics.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s (run with -update to regenerate):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// Exposition-format sample grammar: name, optional label set, value.
var sampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)` + // metric name
		`(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:\\\\|\\"|\\n|[^"\\])*"` + // first label
		`(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:\\\\|\\"|\\n|[^"\\])*")*\})?` + // more labels
		` (\+Inf|-Inf|NaN|[0-9eE.+-]+)$`) // value

// checkExposition asserts every line of a /metrics payload parses under
// the text exposition grammar and that every sample's family was declared
// by a preceding # TYPE line.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	types := map[string]string{}
	samples := 0
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				continue
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: unknown type %q", ln+1, f[3])
			}
			types[f[2]] = f[3]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: does not match sample grammar: %q", ln+1, line)
			continue
		}
		samples++
		name, value := m[1], m[2]
		if value != "+Inf" && value != "-Inf" && value != "NaN" {
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Errorf("line %d: bad value %q: %v", ln+1, value, err)
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok {
				if _, isHist := types[trimmed]; isHist {
					base = trimmed
					break
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
	}
	if samples == 0 {
		t.Error("no samples in exposition")
	}
}

// newLiveSetup builds a WaitTiming broker with traffic flowing on topic
// "a" and returns it with its drift monitor.
func newLiveSetup(t *testing.T) (*broker.Broker, *Monitor) {
	t.Helper()
	b := broker.New(broker.Options{WaitTiming: true})
	if err := b.ConfigureTopic("a"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b, NewMonitor(b, time.Second)
}

func pump(t *testing.T, b *broker.Broker, n int) {
	t.Helper()
	sub, err := b.Subscribe("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := b.Publish(ctx, jms.NewMessage("a")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := sub.Receive(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsGrammar scrapes a live broker's full exposition and checks
// every line against the format grammar.
func TestMetricsGrammar(t *testing.T) {
	b, mon := newLiveSetup(t)
	pump(t, b, 100)
	mon.Tick(time.Now())
	mon.Tick(time.Now().Add(time.Second))

	reg := metrics.NewRegistry()
	reg.Counter("client.reconnects").Inc()
	var buf strings.Builder
	WriteMetrics(&buf, Options{Broker: b, Drift: mon, Registry: reg})
	body := buf.String()
	checkExposition(t, body)
	for _, want := range []string{
		"jms_broker_received_total 100",
		`jms_broker_wait_seconds_bucket{topic="a",le="+Inf"} 100`,
		"jms_model_drift_ratio",
		"jms_registry_client_reconnects 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestHandlerEndpoints drives the four HTTP endpoints of NewHandler.
func TestHandlerEndpoints(t *testing.T) {
	b, mon := newLiveSetup(t)
	pump(t, b, 10)
	mon.Tick(time.Now())
	srv := httptest.NewServer(NewHandler(Options{Broker: b, Drift: mon}))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	checkExposition(t, body)

	if resp, body := get("/stats"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"Received": 10`) {
		t.Errorf("/stats = %d %s", resp.StatusCode, body)
	}
	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

// TestScrapeUnderLoad hammers /metrics and /stats while the broker
// dispatches — the data-race canary for the whole telemetry read path
// (run under -race in CI).
func TestScrapeUnderLoad(t *testing.T) {
	b, mon := newLiveSetup(t)
	srv := httptest.NewServer(NewHandler(Options{Broker: b, Drift: mon}))
	defer srv.Close()

	sub, err := b.Subscribe("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // consumer
		defer wg.Done()
		for {
			if _, err := sub.Receive(ctx); err != nil {
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // ticker
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
				mon.Tick(time.Now().Add(time.Duration(i) * 10 * time.Millisecond))
			}
		}
	}()
	for s := 0; s < 4; s++ { // scrapers
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}([]string{"/metrics", "/stats"}[s%2])
	}
	for i := 0; i < 2000; i++ {
		if err := b.Publish(ctx, jms.NewMessage("a")); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	cancel()
	wg.Wait()
}

// TestSanitizeName maps arbitrary registry names onto the metric-name
// alphabet.
func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"client.reconnects": "client_reconnects",
		"9lives":            "_lives",
		"ok_name:x9":        "ok_name:x9",
		"spaces here":       "spaces_here",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFormatValue covers the special float spellings.
func TestFormatValue(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1.5:          "1.5",
		0:            "0",
	} {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func ExampleWriteCounter() {
	WriteCounter(os.Stdout, "jms_example_total", "An example counter.", 7)
	// Output:
	// # HELP jms_example_total An example counter.
	// # TYPE jms_example_total counter
	// jms_example_total 7
}

// TestWireMetricsExposed drives one real publish through a wire server and
// asserts the wire-path counters surface on /metrics and /stats: frames and
// read/write syscalls in, the write-time counter parseable and finite.
func TestWireMetricsExposed(t *testing.T) {
	b := broker.New(broker.Options{InFlight: 16, SubscriberBuffer: 16})
	t.Cleanup(func() { _ = b.Close() })
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.Serve(b, ln)
	t.Cleanup(func() { _ = ws.Close() })
	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := cl.Publish(ctx, jms.NewMessage("t")); err != nil {
			t.Fatal(err)
		}
	}

	var buf strings.Builder
	WriteMetrics(&buf, Options{Broker: b, Wire: ws})
	body := buf.String()
	checkExposition(t, body)
	for _, name := range []string{
		"jms_wire_frames_in_total", "jms_wire_bytes_in_total", "jms_wire_read_calls_total",
		"jms_wire_frames_out_total", "jms_wire_bytes_out_total", "jms_wire_write_calls_total",
		"jms_wire_write_seconds_total",
	} {
		if !strings.Contains(body, name+" ") {
			t.Errorf("missing %s in exposition", name)
		}
	}
	// Each publish is one inbound frame and one outbound PUB_ACK.
	stats := CollectStats(Options{Broker: b, Wire: ws})
	if stats.Wire == nil {
		t.Fatal("stats.Wire missing")
	}
	p := stats.Wire.Path
	if p.FramesIn < 5 || p.FramesOut < 5 || p.ReadCalls == 0 || p.WriteCalls == 0 {
		t.Errorf("wire path counters = %+v, want >=5 frames each way", p)
	}
	if p.BytesIn == 0 || p.BytesOut == 0 {
		t.Errorf("wire path bytes = (%d, %d), want nonzero", p.BytesIn, p.BytesOut)
	}
}

// TestMeshMetricsExposed boots a live two-member SSR mesh, floods one
// publish through it, and checks both members' jms_mesh_* series: the
// origin counts the forward out, the peer counts it in, and every sample
// is finite.
func TestMeshMetricsExposed(t *testing.T) {
	const members = 2
	lns := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	brokers := make([]*broker.Broker, members)
	servers := make([]*wire.Server, members)
	meshes := make([]*cluster.WireMesh, members)
	for i := range brokers {
		b := broker.New(broker.Options{InFlight: 16, SubscriberBuffer: 16})
		if err := b.ConfigureTopic("t"); err != nil {
			t.Fatal(err)
		}
		wm, err := cluster.NewWireMesh(cluster.WireMeshConfig{
			Kind:  cluster.TopologySSR,
			Self:  i,
			Addrs: addrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		brokers[i] = b
		meshes[i] = wm
		servers[i] = wire.ServeWith(b, lns[i], wire.ServeOptions{Forwarder: wm})
	}
	t.Cleanup(func() {
		for i := range brokers {
			_ = meshes[i].Close()
			_ = servers[i].Close()
			_ = brokers[i].Close()
		}
	})

	cl, err := client.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	if err := cl.Publish(context.Background(), jms.NewMessage("t")); err != nil {
		t.Fatal(err)
	}

	for i := range brokers {
		var buf strings.Builder
		WriteMetrics(&buf, Options{Broker: brokers[i], Wire: servers[i], Mesh: meshes[i]})
		body := buf.String()
		checkExposition(t, body)
		for _, want := range []string{
			`jms_mesh_role{kind="ssr",self="` + strconv.Itoa(i) + `"} 1`,
			"jms_mesh_peers 1",
			"jms_mesh_forwarded_out_total ",
			"jms_mesh_forwarded_in_total ",
			"jms_mesh_forward_errors_total 0",
			"jms_mesh_reconnects_total 0",
			"jms_mesh_forward_inflight 0",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("member %d: missing %q in exposition", i, want)
			}
		}
	}

	origin := CollectStats(Options{Broker: brokers[0], Wire: servers[0], Mesh: meshes[0]})
	peer := CollectStats(Options{Broker: brokers[1], Wire: servers[1], Mesh: meshes[1]})
	if origin.Mesh == nil || peer.Mesh == nil {
		t.Fatal("stats.Mesh missing")
	}
	if origin.Mesh.Kind != "ssr" || origin.Mesh.ForwardedOut != 1 || origin.Mesh.ForwardedIn != 0 {
		t.Errorf("origin mesh stats = %+v, want ssr with 1 forward out", origin.Mesh)
	}
	if peer.Mesh.ForwardedIn != 1 || peer.Mesh.ForwardedOut != 0 {
		t.Errorf("peer mesh stats = %+v, want 1 forward in", peer.Mesh)
	}
}
