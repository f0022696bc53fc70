package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/jms"
	"repro/internal/wire"
)

// startDaemon boots run() in the background and waits for readiness.
func startDaemon(t *testing.T, args ...string) (addrs, chan struct{}, chan error) {
	t.Helper()
	stop := make(chan struct{})
	ready := make(chan addrs, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(args, stop, ready)
	}()
	select {
	case bound := <-ready:
		return bound, stop, errCh
	case err := <-errCh:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	panic("unreachable")
}

func TestDaemonServesClients(t *testing.T) {
	bound, stop, errCh := startDaemon(t, "-addr", "127.0.0.1:0", "-topics", "a,b")

	c, err := client.Dial(bound.Broker)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	sub, err := c.Subscribe(ctx, "a", wire.FilterSpec{Mode: wire.FilterNone}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(ctx, jms.NewMessage("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Receive(ctx); err != nil {
		t.Fatal(err)
	}

	close(stop)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	stop := make(chan struct{})
	if err := run([]string{"-bogus"}, stop, nil); err == nil {
		t.Error("bogus flag accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:-1"}, stop, nil); err == nil {
		t.Error("bad address accepted")
	}
	if err := run([]string{"-topics", "a,a"}, stop, nil); err == nil {
		t.Error("duplicate topics accepted")
	}
	if err := run([]string{"-log-level", "shouty"}, stop, nil); err == nil {
		t.Error("bad log level accepted")
	} else if !strings.Contains(err.Error(), "shouty") {
		t.Errorf("log-level error %q does not name the bad value", err)
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-http", "256.0.0.1:-1"}, stop, nil); err == nil {
		t.Error("bad telemetry address accepted")
	}
}

func TestParseLogLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug":   slog.LevelDebug,
		"INFO":    slog.LevelInfo,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"Error":   slog.LevelError,
	} {
		got, err := parseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("parseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// TestDaemonFastEngine boots the daemon on the fast dispatch engine and
// round-trips a message through TCP.
func TestDaemonFastEngine(t *testing.T) {
	bound, stop, errCh := startDaemon(t,
		"-addr", "127.0.0.1:0", "-topics", "a", "-engine", "fast", "-shards", "2")

	c, err := client.Dial(bound.Broker)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	sub, err := c.Subscribe(ctx, "a", wire.FilterSpec{Mode: wire.FilterNone}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(ctx, jms.NewMessage("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Receive(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestDaemonBadEngine checks the fail-fast path: a typoed -engine is
// rejected before the broker starts, with an error that enumerates the
// valid engine names.
func TestDaemonBadEngine(t *testing.T) {
	err := run([]string{"-engine", "bogus"}, nil, nil)
	if err == nil {
		t.Fatal("bogus engine accepted")
	}
	for _, want := range []string{"bogus", "valid engines", "faithful", "fast"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("engine error %q missing %q", err, want)
		}
	}
}

// freeAddrs reserves n distinct loopback ports and releases them, so a
// mesh of daemons can be told every member's address up front.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return addrs
}

// TestDaemonMesh boots a two-member SSR mesh of daemons, publishes at one
// member, and checks the flood surfaces on the other and in the origin's
// jms_mesh_* telemetry.
func TestDaemonMesh(t *testing.T) {
	addrs := freeAddrs(t, 2)
	peers := strings.Join(addrs, ",")
	var stops []chan struct{}
	var errChs []chan error
	var httpAddr string
	for i, a := range addrs {
		args := []string{
			"-addr", a, "-topics", "t", "-log-level", "error",
			"-mesh", "ssr", "-peers", peers, "-mesh-self", fmt.Sprint(i),
		}
		if i == 0 {
			args = append(args, "-http", "127.0.0.1:0")
		}
		bound, stop, errCh := startDaemon(t, args...)
		stops = append(stops, stop)
		errChs = append(errChs, errCh)
		if i == 0 {
			httpAddr = bound.HTTP
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	peerClient, err := client.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peerClient.Close() }()
	sub, err := peerClient.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 16)
	if err != nil {
		t.Fatal(err)
	}

	origin, err := client.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = origin.Close() }()
	if err := origin.Publish(ctx, jms.NewMessage("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Receive(ctx); err != nil {
		t.Fatalf("flood never reached the peer member: %v", err)
	}

	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`jms_mesh_role{kind="ssr",self="0"} 1`,
		"jms_mesh_peers 1",
		"jms_mesh_forwarded_out_total 1",
		"jms_mesh_forward_errors_total 0",
		// The publish was acked, so its forward window has emptied.
		"jms_mesh_forward_inflight 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	for i := range stops {
		close(stops[i])
	}
	for i, errCh := range errChs {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("member %d shutdown error: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("member %d did not shut down", i)
		}
	}
}

// TestDaemonMeshBadFlags checks the mesh flag validation fails fast.
func TestDaemonMeshBadFlags(t *testing.T) {
	if err := run([]string{"-mesh", "bogus", "-peers", "a:1,b:1"}, nil, nil); err == nil {
		t.Error("bogus mesh kind accepted")
	}
	if err := run([]string{"-mesh", "ssr", "-peers", "a:1"}, nil, nil); err == nil {
		t.Error("single-member mesh accepted")
	}
	if err := run([]string{"-mesh", "psr", "-peers", "a:1,b:1", "-mesh-self", "7"}, nil, nil); err == nil {
		t.Error("out-of-range mesh-self accepted")
	}
}

// TestDaemonTelemetryPlane boots jmsd with -http, pushes traffic through
// the broker, and exercises all four telemetry endpoints.
func TestDaemonTelemetryPlane(t *testing.T) {
	bound, stop, errCh := startDaemon(t,
		"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-topics", "a", "-drift-interval", "50ms", "-log-level", "error")
	if bound.HTTP == "" {
		t.Fatal("no telemetry address reported")
	}

	c, err := client.Dial(bound.Broker)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := c.Subscribe(ctx, "a", wire.FilterSpec{Mode: wire.FilterNone}, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Publish(ctx, jms.NewMessage("a")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := sub.Receive(ctx); err != nil {
			t.Fatal(err)
		}
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + bound.HTTP + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// A message's sojourn is observed after its last transmit, so the last
	// Receive can return before it is counted: scrape until it is, within
	// ctx.
	const sojourn = "jms_broker_sojourn_seconds_count{topic=\"a\"} 100"
	code, body := get("/metrics")
	for code == http.StatusOK && !strings.Contains(body, sojourn) && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
		code, body = get("/metrics")
	}
	if code != http.StatusOK {
		t.Errorf("/metrics status %d", code)
	} else {
		for _, want := range []string{
			"jms_broker_received_total 100",
			"jms_broker_topic_received_total{topic=\"a\"} 100",
			"jms_broker_wait_seconds_count{topic=\"a\"} 100",
			sojourn,
			"jms_wire_connections_total",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}
	if code, body := get("/stats"); code != http.StatusOK {
		t.Errorf("/stats status %d", code)
	} else {
		var st struct {
			Broker struct {
				Received uint64
			} `json:"broker"`
			Wire struct {
				OpenConns int `json:"open_conns"`
			} `json:"wire"`
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Errorf("/stats not JSON: %v\n%s", err, body)
		} else {
			if st.Broker.Received != 100 {
				t.Errorf("/stats broker received = %d, want 100", st.Broker.Received)
			}
			if st.Wire.OpenConns < 1 {
				t.Errorf("/stats wire open_conns = %d, want >= 1", st.Wire.OpenConns)
			}
		}
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d (goroutine index missing)", code)
	}

	// Give the 50ms drift monitor a couple of windows, then check its
	// gauges made it to /metrics (traffic already stopped, so the gauges
	// retain the last busy window's values).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get("/metrics")
		if strings.Contains(body, "jms_model_observed_ew_seconds{topic=\"a\"}") {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("drift gauges never appeared in /metrics")
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	close(stop)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
