// Package telemetry is the broker's live observability plane: it renders
// the metrics primitives of internal/metrics (counters, gauges, labeled
// families, log2 duration histograms) in Prometheus text exposition format,
// serves a consistent JSON stats snapshot, and hosts the online M/G/1
// model-drift monitor (drift.go) that compares the paper's predicted
// waiting time against the waiting time actually measured on the running
// broker.
//
// The HTTP surface (NewHandler) exposes:
//
//	/metrics       Prometheus text format (version 0.0.4)
//	/stats         JSON: broker counters, per-topic tracing,
//	               wire-server counters and drift estimates in one response
//	/healthz       liveness probe ("ok")
//	/debug/pprof/  net/http/pprof profiles
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Label is one exposition label pair.
type Label struct {
	Name, Value string
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sanitizeName maps an arbitrary counter name (e.g. "client.reconnects")
// onto the metric-name alphabet [a-zA-Z0-9_:].
func sanitizeName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHeader writes the # HELP / # TYPE preamble of one metric family.
func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// writeSample writes one `name{labels} value` line.
func writeSample(w io.Writer, name string, labels []Label, v float64) {
	io.WriteString(w, name)
	if len(labels) > 0 {
		io.WriteString(w, "{")
		for i, l := range labels {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, `%s="%s"`, l.Name, escapeLabel(l.Value))
		}
		io.WriteString(w, "}")
	}
	io.WriteString(w, " ")
	io.WriteString(w, formatValue(v))
	io.WriteString(w, "\n")
}

// WriteCounter writes a single unlabeled counter family with one sample.
func WriteCounter(w io.Writer, name, help string, v uint64) {
	writeHeader(w, name, help, "counter")
	writeSample(w, name, nil, float64(v))
}

// WriteGauge writes a single unlabeled gauge family with one sample.
func WriteGauge(w io.Writer, name, help string, v float64) {
	writeHeader(w, name, help, "gauge")
	writeSample(w, name, nil, v)
}

// WriteHistogram renders one histogram snapshot in Prometheus histogram
// convention: cumulative `_bucket{le="<seconds>"}` series over the log2
// bucket bounds (see metrics.BucketBound), a `_sum` in seconds, and a
// `_count`. Empty interior buckets are elided (the series stays cumulative
// and parseable, just shorter); the +Inf bucket is always present.
func WriteHistogram(w io.Writer, name, help string, labels []Label, s metrics.HistogramSnapshot) {
	writeHeader(w, name, help, "histogram")
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if c == 0 && i < metrics.HistogramBuckets-1 {
			continue
		}
		bound := metrics.BucketBound(i)
		le := "+Inf"
		if !math.IsInf(bound, 1) {
			le = formatValue(bound / 1e9)
		}
		writeSample(w, name+"_bucket", append(labels[:len(labels):len(labels)], Label{"le", le}), float64(cum))
	}
	writeSample(w, name+"_sum", labels, float64(s.Sum)/1e9)
	writeSample(w, name+"_count", labels, float64(s.Count))
}

// WriteGaugeVec renders a labeled gauge family, children in deterministic
// order.
func WriteGaugeVec(w io.Writer, v *metrics.GaugeVec) {
	writeHeader(w, v.Name, v.Help, "gauge")
	names := v.LabelNames()
	v.Each(func(values []string, g *metrics.Gauge) {
		labels := make([]Label, len(names))
		for i := range names {
			labels[i] = Label{names[i], values[i]}
		}
		writeSample(w, v.Name, labels, g.Value())
	})
}

// WriteCounterVec renders a labeled counter family, children in
// deterministic order.
func WriteCounterVec(w io.Writer, v *metrics.CounterVec) {
	writeHeader(w, v.Name, v.Help, "counter")
	names := v.LabelNames()
	v.Each(func(values []string, c *metrics.Counter) {
		labels := make([]Label, len(names))
		for i := range names {
			labels[i] = Label{names[i], values[i]}
		}
		writeSample(w, v.Name, labels, float64(c.Value()))
	})
}

// WriteRegistry renders every counter of a metrics.Registry snapshot as
// `<prefix>_<sanitized name>` counters, in sorted name order.
func WriteRegistry(w io.Writer, prefix string, snap metrics.Snapshot) {
	names := make([]string, 0, len(snap.Values))
	for name := range snap.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		WriteCounter(w, prefix+"_"+sanitizeName(name), "registry counter "+name, snap.Values[name])
	}
}

// Options configure the telemetry handler. Broker is required; everything
// else is optional and simply absent from the output when nil.
type Options struct {
	// Broker supplies Stats and per-topic Telemetry.
	Broker *broker.Broker
	// Wire supplies connection and dedupe counters.
	Wire *wire.Server
	// Drift supplies the model-drift gauges and JSON estimates.
	Drift *Monitor
	// Trace supplies the per-message flight recorder: the jms_trace_*
	// stage-decomposition series on /metrics and the /trace + /trace/{id}
	// JSON endpoints.
	Trace *trace.Recorder
	// Mesh supplies the replication-mesh forwarder counters (jms_mesh_*).
	// Forwards received from peers come from Wire (ForwardsIn), so the
	// ingress side still renders when only Wire is set.
	Mesh *cluster.WireMesh
	// Registry counters are rendered under the jms_registry_ prefix.
	Registry *metrics.Registry
	// Gauges and Counters are additional labeled families to expose.
	Gauges []*metrics.GaugeVec
	// Counters are additional labeled counter families to expose.
	Counters []*metrics.CounterVec
}

// WriteMetrics renders the full /metrics payload for the given sources.
func WriteMetrics(w io.Writer, opts Options) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	if b := opts.Broker; b != nil {
		st := b.Stats()
		WriteCounter(bw, "jms_broker_received_total", "Messages accepted from publishers.", st.Received)
		WriteCounter(bw, "jms_broker_dispatched_total", "Message copies forwarded to subscribers.", st.Dispatched)
		WriteCounter(bw, "jms_broker_filter_evals_total", "Individual filter evaluations.", st.FilterEvals)
		WriteCounter(bw, "jms_broker_dropped_total", "Non-persistent deliveries discarded on full queues.", st.Dropped)
		WriteCounter(bw, "jms_broker_expired_total", "Messages discarded at dispatch because their expiration passed.", st.Expired)
		WriteCounter(bw, "jms_slow_consumer_dropped_total", "Deliveries evicted by the drop-oldest slow-consumer policy.", st.SlowDropped)
		WriteCounter(bw, "jms_slow_consumer_disconnects_total", "Subscriptions force-removed by the disconnect slow-consumer policy.", st.SlowDisconnects)
		WriteGauge(bw, "jms_broker_filters", "Currently installed filters (the paper's n_fltr).", float64(b.NumFilters()))

		tel := b.Telemetry()
		if len(tel) > 0 {
			topics := make([]string, 0, len(tel))
			for name := range tel {
				topics = append(topics, name)
			}
			sort.Strings(topics)
			writeHeader(bw, "jms_broker_topic_received_total", "Messages accepted into the topic queue.", "counter")
			for _, name := range topics {
				writeSample(bw, "jms_broker_topic_received_total", []Label{{"topic", name}}, float64(tel[name].Received))
			}
			for _, name := range topics {
				WriteHistogram(bw, "jms_broker_wait_seconds",
					"Per-message waiting time W: broker enqueue to dispatch start.",
					[]Label{{"topic", name}}, tel[name].Wait)
			}
			for _, name := range topics {
				WriteHistogram(bw, "jms_broker_sojourn_seconds",
					"Per-message sojourn time: broker enqueue to last transmit.",
					[]Label{{"topic", name}}, tel[name].Sojourn)
			}
		}
	}

	if s := opts.Wire; s != nil {
		WriteGauge(bw, "jms_wire_open_connections", "Currently open client connections.", float64(s.OpenConns()))
		WriteCounter(bw, "jms_wire_connections_total", "Client connections accepted.", s.AcceptedConns())
		WriteCounter(bw, "jms_wire_duplicates_suppressed_total", "Redelivered publishes acknowledged without publishing again.", s.DuplicatesSuppressed())

		// Wire-path counters: frame counts against syscall counts quantify
		// the coalescing of the ingress window and egress queues, and
		// write_seconds_total/frames_out_total is the socket's per-frame
		// write cost.
		ws := s.WireStats()
		WriteCounter(bw, "jms_wire_frames_in_total", "Frames received from clients.", ws.FramesIn)
		WriteCounter(bw, "jms_wire_bytes_in_total", "Bytes received from clients (prologues included).", ws.BytesIn)
		WriteCounter(bw, "jms_wire_read_calls_total", "Read syscalls on client sockets.", ws.ReadCalls)
		WriteCounter(bw, "jms_wire_frames_out_total", "Frames sent to clients.", ws.FramesOut)
		WriteCounter(bw, "jms_wire_bytes_out_total", "Bytes sent to clients.", ws.BytesOut)
		WriteCounter(bw, "jms_wire_write_calls_total", "Write syscalls (vectored writes count once).", ws.WriteCalls)
		writeHeader(bw, "jms_wire_write_seconds_total", "Wall time spent inside socket write syscalls.", "counter")
		writeSample(bw, "jms_wire_write_seconds_total", nil, float64(ws.WriteNanos)/1e9)
		WriteCounter(bw, "jms_mesh_forwarded_in_total", "FORWARD frames accepted from mesh peers.", s.ForwardsIn())
	}

	if wm := opts.Mesh; wm != nil {
		ms := wm.Stats()
		// Role is an info-style gauge: constant 1, identity in the labels,
		// so a scrape join can attach the topology to any other series.
		writeHeader(bw, "jms_mesh_role", "Replication topology of this member (info gauge: value is always 1).", "gauge")
		writeSample(bw, "jms_mesh_role", []Label{
			{"kind", ms.Kind.String()},
			{"self", strconv.Itoa(ms.Self)},
		}, 1)
		WriteGauge(bw, "jms_mesh_peers", "Remote mesh members this server forwards to.", float64(ms.Peers))
		WriteCounter(bw, "jms_mesh_forwarded_out_total", "FORWARD frames acked by mesh peers.", ms.ForwardedOut)
		WriteCounter(bw, "jms_mesh_forward_errors_total", "Forwards that failed and rejected the triggering publish.", ms.ForwardErrors)
		WriteCounter(bw, "jms_mesh_reconnects_total", "Peer re-dials after an established mesh connection broke.", ms.Reconnects)
		WriteGauge(bw, "jms_mesh_forward_inflight", "FORWARD frames sent to mesh peers and not yet acked or failed (forward window occupancy).", float64(ms.ForwardInflight))
	}

	if d := opts.Drift; d != nil {
		for _, v := range d.GaugeVecs() {
			WriteGaugeVec(bw, v)
		}
	}
	if tr := opts.Trace; tr != nil {
		// Cumulative per-stage residency counters: the raw substrate of
		// the W_obs ≈ W_queue + Σ stage residencies decomposition (the
		// windowed means live on the drift monitor's jms_trace_stage_*
		// gauges). Sampled population only.
		ts := tr.Stats()
		writeHeader(bw, "jms_trace_stage_seconds_total", "Cumulative stage residency over head-sampled messages.", "counter")
		for _, st := range trace.Stages() {
			acc := ts.Stage(st)
			writeSample(bw, "jms_trace_stage_seconds_total", []Label{{"stage", st.String()}}, float64(acc.SumNs)/1e9)
		}
		writeHeader(bw, "jms_trace_stage_count_total", "Cumulative stage span count over head-sampled messages.", "counter")
		for _, st := range trace.Stages() {
			acc := ts.Stage(st)
			writeSample(bw, "jms_trace_stage_count_total", []Label{{"stage", st.String()}}, float64(acc.Count))
		}
		writeHeader(bw, "jms_trace_sojourn_seconds_total", "Cumulative broker sojourn over head-sampled messages.", "counter")
		writeSample(bw, "jms_trace_sojourn_seconds_total", nil, float64(ts.Sojourn.SumNs)/1e9)
		WriteCounter(bw, "jms_trace_finished_total", "Head-sampled messages finished by the broker.", ts.Sojourn.Count)
		WriteCounter(bw, "jms_trace_started_total", "Flight records opened (head-sampled messages seen).", ts.Started)
		WriteCounter(bw, "jms_trace_committed_total", "Flight records committed to the ring buffers.", ts.Committed)
		WriteCounter(bw, "jms_trace_tail_kept_total", "Traces retained by the slowest-N tail keeper.", ts.TailKept)
		WriteCounter(bw, "jms_trace_spans_dropped_total", "Spans dropped on full per-trace span arrays.", ts.SpanDropped)
	}
	for _, v := range opts.Gauges {
		WriteGaugeVec(bw, v)
	}
	for _, v := range opts.Counters {
		WriteCounterVec(bw, v)
	}
	if opts.Registry != nil {
		WriteRegistry(bw, "jms_registry", opts.Registry.Snapshot(time.Now()))
	}
}

// Stats is the /stats JSON payload: one response carrying every snapshot
// the telemetry plane knows about, taken as close together as the sources
// allow (Broker.Stats itself is a consistent cut).
type Stats struct {
	Time   time.Time                        `json:"time"`
	Broker broker.Stats                     `json:"broker"`
	Topics map[string]broker.TopicTelemetry `json:"topics,omitempty"`
	Wire   *WireStats                       `json:"wire,omitempty"`
	Mesh   *MeshStats                       `json:"mesh,omitempty"`
	Drift  map[string]Estimate              `json:"drift,omitempty"`
}

// MeshStats are the replication-mesh counters in the /stats payload.
type MeshStats struct {
	Kind          string `json:"kind"`
	Self          int    `json:"self"`
	Peers         int    `json:"peers"`
	ForwardedOut  uint64 `json:"forwarded_out"`
	ForwardedIn   uint64 `json:"forwarded_in"`
	ForwardErrors uint64 `json:"forward_errors"`
	Reconnects    uint64 `json:"reconnects"`
	// ForwardInflight is the forward window's occupancy: FORWARD frames
	// sent and not yet acked or failed.
	ForwardInflight int64 `json:"forward_inflight"`
}

// WireStats are the wire server's counters in the /stats payload.
type WireStats struct {
	OpenConns            int    `json:"open_conns"`
	AcceptedConns        uint64 `json:"accepted_conns"`
	DuplicatesSuppressed uint64 `json:"duplicates_suppressed"`
	// Path holds the frame/byte/syscall counters of the zero-allocation
	// wire path (ingress window reads, coalesced egress writes).
	Path wire.WireStats `json:"path"`
}

// CollectStats gathers the /stats payload.
func CollectStats(opts Options) Stats {
	out := Stats{Time: time.Now()}
	if b := opts.Broker; b != nil {
		out.Broker = b.Stats()
		if tel := b.Telemetry(); len(tel) > 0 {
			out.Topics = tel
		}
	}
	if s := opts.Wire; s != nil {
		out.Wire = &WireStats{
			OpenConns:            s.OpenConns(),
			AcceptedConns:        s.AcceptedConns(),
			DuplicatesSuppressed: s.DuplicatesSuppressed(),
			Path:                 s.WireStats(),
		}
	}
	if wm := opts.Mesh; wm != nil {
		ms := wm.Stats()
		out.Mesh = &MeshStats{
			Kind:            ms.Kind.String(),
			Self:            ms.Self,
			Peers:           ms.Peers,
			ForwardedOut:    ms.ForwardedOut,
			ForwardErrors:   ms.ForwardErrors,
			Reconnects:      ms.Reconnects,
			ForwardInflight: ms.ForwardInflight,
		}
		if s := opts.Wire; s != nil {
			out.Mesh.ForwardedIn = s.ForwardsIn()
		}
	}
	if d := opts.Drift; d != nil {
		if est := d.Estimates(); len(est) > 0 {
			out.Drift = est
		}
	}
	return out
}

// NewHandler returns the telemetry HTTP handler serving /metrics, /stats,
// /healthz, /debug/pprof/ and — with Options.Trace — the flight
// recorder's /trace (JSON list, slowest first, plus histogram-bucket
// exemplar links) and /trace/{id} (full span tree; id in the 16-hex form
// the list uses, or decimal).
func NewHandler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, opts)
	})
	if tr := opts.Trace; tr != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			limit := 64
			if s := r.URL.Query().Get("limit"); s != "" {
				if n, err := strconv.Atoi(s); err == nil && n > 0 {
					limit = n
				}
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(tr.ListResponse(limit))
		})
		mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
			id, err := trace.ParseID(strings.TrimPrefix(r.URL.Path, "/trace/"))
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			t, ok := tr.Get(id)
			if !ok {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(t.JSON(true))
		})
	}
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(CollectStats(opts))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
