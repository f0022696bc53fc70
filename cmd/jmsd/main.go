// Command jmsd runs a standalone JMS-style broker over TCP.
//
// Usage:
//
//	jmsd -addr :7650 -topics presence,orders -inflight 64 \
//	     -http :7651 -log-level info
//
// Clients connect with the repro/internal/client package (or any
// implementation of the wire protocol in repro/internal/wire). With -http
// the daemon serves its telemetry plane — Prometheus /metrics, JSON
// /stats, /healthz and /debug/pprof/ — and runs the online M/G/1
// model-drift monitor next to the broker (see internal/telemetry).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sigCh
		close(stop)
	}()
	if err := run(os.Args[1:], stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "jmsd:", err)
		os.Exit(1)
	}
}

// addrs reports the daemon's bound listen addresses once it is ready.
type addrs struct {
	// Broker is the wire-protocol TCP address.
	Broker string
	// HTTP is the telemetry address; empty when -http is unset.
	HTTP string
}

// parseLogLevel maps a -log-level flag value onto a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (valid: debug, info, warn, error)", s)
}

// run starts the daemon and blocks until stop is closed. If ready is
// non-nil, the bound addresses are sent on it once every listener is up.
func run(args []string, stop <-chan struct{}, ready chan<- addrs) error {
	fs := flag.NewFlagSet("jmsd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7650", "listen address")
	httpAddr := fs.String("http", "", "telemetry listen address (/metrics, /stats, /healthz, /debug/pprof/); empty disables")
	topics := fs.String("topics", "default", "comma-separated topics to configure at start")
	inFlight := fs.Int("inflight", 64, "per-worker in-flight window (publisher push-back)")
	subBuffer := fs.Int("subbuffer", 64, "per-subscriber delivery queue length")
	engineName := fs.String("engine", "faithful", "dispatch engine: "+strings.Join(broker.EngineNames(), " or "))
	slowName := fs.String("slow-consumer", "block", "slow-consumer policy: "+strings.Join(broker.SlowConsumerPolicyNames(), ", "))
	shards := fs.Int("shards", 0, "fast engine: dispatch workers per topic, each publisher pinned to one (0 = auto)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	meshKind := fs.String("mesh", "", "replication topology: psr, ssr or hash; empty runs standalone")
	peers := fs.String("peers", "", "comma-separated wire addresses of every mesh member, self included (with -mesh)")
	meshSelf := fs.Int("mesh-self", 0, "this member's index into -peers (with -mesh)")
	driftEvery := fs.Duration("drift-interval", 5*time.Second, "model-drift monitor evaluation interval (with -http)")
	traceSample := fs.Int("trace-sample", 64, "flight recorder: record full spans for 1-in-N traced messages (with -http; 0 disables /trace)")
	traceTail := fs.Int("trace-tail", 16, "flight recorder: always keep the slowest N traces per window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := broker.ParseEngine(*engineName)
	if err != nil {
		return fmt.Errorf("-engine: %w", err)
	}
	slowPolicy, err := broker.ParseSlowConsumerPolicy(*slowName)
	if err != nil {
		return fmt.Errorf("-slow-consumer: %w", err)
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// The flight recorder only pays off when the telemetry plane can
	// serve /trace, so it rides the -http flag like the drift monitor.
	var recorder *trace.Recorder
	if *httpAddr != "" && *traceSample > 0 {
		recorder = trace.New(trace.Config{SampleEvery: *traceSample, TailKeep: *traceTail})
		defer recorder.Close()
	}

	b := broker.New(broker.Options{
		InFlight:         *inFlight,
		SubscriberBuffer: *subBuffer,
		Engine:           engine,
		Shards:           *shards,
		SlowConsumer:     slowPolicy,
		// The telemetry plane needs the per-topic waiting-time tracing.
		WaitTiming: *httpAddr != "",
		Tracer:     recorder,
	})
	for _, name := range strings.Split(*topics, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := b.ConfigureTopic(name); err != nil {
			return fmt.Errorf("configure topic %q: %w", name, err)
		}
	}

	// Replication mesh: publishes entering this member are forwarded to
	// peers per the topology (SSR floods, hash routes to the topic owner,
	// PSR never forwards) before the local broker sees them.
	var mesh *cluster.WireMesh
	if *meshKind != "" {
		kind, err := cluster.ParseTopology(*meshKind)
		if err != nil {
			_ = b.Close()
			return fmt.Errorf("-mesh: %w", err)
		}
		var addrs []string
		for _, a := range strings.Split(*peers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) < 2 {
			_ = b.Close()
			return fmt.Errorf("-mesh %s needs at least 2 addresses in -peers, got %d", kind, len(addrs))
		}
		mesh, err = cluster.NewWireMesh(cluster.WireMeshConfig{
			Kind:   kind,
			Self:   *meshSelf,
			Addrs:  addrs,
			Topics: b.Topics(),
		})
		if err != nil {
			_ = b.Close()
			return fmt.Errorf("-mesh: %w", err)
		}
		defer mesh.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	serveOpts := wire.ServeOptions{Logger: logger, Tracer: recorder}
	if mesh != nil {
		serveOpts.Forwarder = mesh
	}
	srv := wire.ServeWith(b, ln, serveOpts)
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"engine", engine.String(),
		"topics", strings.Join(b.Topics(), ","))
	if mesh != nil {
		logger.Info("mesh joined",
			"kind", mesh.Kind().String(),
			"self", mesh.Self(),
			"peers", mesh.Stats().Peers)
	}

	// Telemetry plane: /metrics + /stats + /healthz + pprof, plus the
	// model-drift monitor feeding the jms_model_* gauges.
	var (
		drift    *telemetry.Monitor
		httpSrv  *http.Server
		httpDone chan struct{}
		bound    addrs
	)
	bound.Broker = ln.Addr().String()
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			_ = srv.Close()
			_ = b.Close()
			return fmt.Errorf("-http: %w", err)
		}
		drift = telemetry.NewMonitor(b, *driftEvery)
		drift.AttachTracer(recorder)
		drift.Start()
		httpSrv = &http.Server{Handler: telemetry.NewHandler(telemetry.Options{
			Broker: b,
			Wire:   srv,
			Drift:  drift,
			Trace:  recorder,
			Mesh:   mesh,
		})}
		httpDone = make(chan struct{})
		go func() {
			defer close(httpDone)
			if err := httpSrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				logger.Error("telemetry server failed", "reason", err.Error())
			}
		}()
		bound.HTTP = hln.Addr().String()
		logger.Info("telemetry listening", "addr", bound.HTTP, "drift_interval", driftEvery.String())
	}
	if ready != nil {
		ready <- bound
	}

	<-stop
	// Graceful shutdown: stop accepting and cut client connections first,
	// then let the broker drain in-flight dispatches through the
	// pipeline's shutdown drain, and close the telemetry server last so a
	// final scrape can still read the end-state metrics.
	logger.Info("shutting down")
	if err := srv.Close(); err != nil {
		logger.Warn("server close failed", "reason", err.Error())
	}
	if err := b.Close(); err != nil {
		logger.Warn("broker close failed", "reason", err.Error())
	}
	if drift != nil {
		// One last evaluation over the fully drained broker, then stop.
		drift.Tick(time.Now())
		drift.Stop()
	}
	s := b.Stats()
	logger.Info("final stats",
		"received", s.Received,
		"dispatched", s.Dispatched,
		"filter_evals", s.FilterEvals,
		"dropped", s.Dropped,
		"expired", s.Expired,
		"slow_dropped", s.SlowDropped,
		"slow_disconnects", s.SlowDisconnects)
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("telemetry close failed", "reason", err.Error())
		}
		<-httpDone
	}
	return nil
}
