package broker

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/trace"
)

// TestSeqResultStaysInline pins sizeof(seqResult) at the runtime's
// 128-byte map-element inline threshold. The sharded committer's reorder
// buffer is a map[uint64]seqResult; one byte over the threshold makes the
// runtime store elements indirectly, turning every out-of-order insert
// into a heap allocation on the dispatch hot path.
func TestSeqResultStaysInline(t *testing.T) {
	if s := unsafe.Sizeof(seqResult{}); s > 128 {
		t.Fatalf("sizeof(seqResult) = %d, exceeds the 128-byte map inline threshold", s)
	}
}

func newTestRecorder(t testing.TB, cfg trace.Config) *trace.Recorder {
	t.Helper()
	if cfg.FinalizeAfter == 0 {
		cfg.FinalizeAfter = time.Hour // tests commit via Flush
	}
	r := trace.New(cfg)
	t.Cleanup(r.Close)
	return r
}

// drain consumes a subscriber's channel until stop closes, counting
// deliveries, so publishes never block on a full buffer.
func drain(sub *Subscriber, wg *sync.WaitGroup) {
	defer wg.Done()
	for range sub.Chan() {
	}
}

// TestFlightRecorderTiling is the tentpole acceptance check at the broker
// layer: on the serial (faithful) engine the recorded stage spans —
// queue + match + replicate + transmit — must tile the observed sojourn,
// summing to within 10% of it over the run.
func TestFlightRecorderTiling(t *testing.T) {
	rec := newTestRecorder(t, trace.Config{SampleEvery: 1})
	b := newTestBroker(t, Options{Engine: EngineFaithful, Tracer: rec, SubscriberBuffer: 512})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		sub, err := b.Subscribe("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go drain(sub, &wg)
	}

	const n = 200
	ctx := context.Background()
	for i := 1; i <= n; i++ {
		m := jms.NewMessage("t")
		m.Header.TraceID = trace.NewID(7, uint64(i))
		if err := b.Publish(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	waitDispatched(t, b, n*2)
	rec.Flush()

	var full int
	var stageSum, sojournSum int64
	for _, tr := range rec.List(0) {
		if !tr.Complete || tr.Skeleton {
			continue
		}
		full++
		if tr.Topic != "t" {
			t.Errorf("trace %d topic %q", tr.ID, tr.Topic)
		}
		if tr.R != 2 {
			t.Errorf("trace %d R = %d, want 2", tr.ID, tr.R)
		}
		if tr.SojournNs <= 0 {
			t.Errorf("trace %d without sojourn", tr.ID)
		}
		for _, st := range []trace.Stage{trace.StageQueue, trace.StageMatch, trace.StageTransmit} {
			if tr.StageNs(st) < 0 || len(tr.Spans) == 0 {
				t.Errorf("trace %d missing %s span", tr.ID, st)
			}
		}
		sum := tr.StageNs(trace.StageQueue) + tr.StageNs(trace.StageMatch) +
			tr.StageNs(trace.StageReplicate) + tr.StageNs(trace.StageTransmit)
		stageSum += sum
		sojournSum += tr.SojournNs
	}
	if full != n {
		t.Fatalf("committed %d full traces, want %d", full, n)
	}
	cov := float64(stageSum) / float64(sojournSum)
	if cov < 0.90 || cov > 1.02 {
		t.Errorf("stage spans cover %.1f%% of observed sojourn, want within 10%%", cov*100)
	}
	// The recorder's own windowed Coverage agrees with the direct sum.
	if c := rec.Stats().Coverage(); c < 0.90 || c > 1.02 {
		t.Errorf("Stats().Coverage() = %.3f", c)
	}
}

// TestStageStatsCounts publishes a known workload on both engines with
// every message traced and checks the recorder's per-stage span counts —
// the per-stage view /metrics exposes as jms_trace_stage_* — against the
// Eq. 1 bookkeeping: every message is queued and matched once, and its R
// replicas get one aggregated replicate and one transmit span.
func TestStageStatsCounts(t *testing.T) {
	for _, engine := range []Engine{EngineFaithful, EngineFast} {
		t.Run(engine.String(), func(t *testing.T) {
			const msgs, replicas = 50, 3
			rec := newTestRecorder(t, trace.Config{SampleEvery: 1})
			b := newTestBroker(t, Options{Engine: engine, Shards: 2, Tracer: rec, SubscriberBuffer: msgs * replicas})
			for i := 0; i < replicas; i++ {
				if _, err := b.Subscribe("t", nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= msgs; i++ {
				m := jms.NewMessage("t")
				m.Header.TraceID = trace.NewID(19, uint64(i))
				if err := b.Publish(context.Background(), m); err != nil {
					t.Fatal(err)
				}
			}
			// A message's spans are all recorded before its sojourn.
			deadline := time.Now().Add(10 * time.Second)
			for rec.Stats().Sojourn.Count < msgs {
				if time.Now().After(deadline) {
					t.Fatalf("finished %d of %d messages", rec.Stats().Sojourn.Count, msgs)
				}
				time.Sleep(time.Millisecond)
			}
			st := rec.Stats()
			for _, s := range []trace.Stage{trace.StageQueue, trace.StageMatch, trace.StageReplicate, trace.StageTransmit} {
				if got := st.Stage(s).Count; got != msgs {
					t.Errorf("%s spans = %d, want %d", s, got, msgs)
				}
			}
			if st.Stage(trace.StageTransmit).SumNs == 0 {
				t.Error("no time recorded in the transmit stage")
			}
			if d := st.Sub(st); d.Stage(trace.StageMatch).Count != 0 || d.Sojourn.SumNs != 0 {
				t.Errorf("self-delta not empty: %+v", d)
			}
		})
	}
}

// TestFlightRecorderShardedEngine checks the fast engine's out-of-order
// front stages still produce complete traces with sojourns (the reorder
// wait between match and commit is intentionally unattributed there).
func TestFlightRecorderShardedEngine(t *testing.T) {
	rec := newTestRecorder(t, trace.Config{SampleEvery: 1})
	b := newTestBroker(t, Options{Engine: EngineFast, Shards: 4, Tracer: rec, SubscriberBuffer: 512})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go drain(sub, &wg)

	const n = 100
	ctx := context.Background()
	for i := 1; i <= n; i++ {
		m := jms.NewMessage("t")
		m.Header.TraceID = trace.NewID(9, uint64(i))
		if err := b.Publish(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	waitDispatched(t, b, n)
	rec.Flush()
	var full int
	for _, tr := range rec.List(0) {
		if !tr.Complete || tr.Skeleton {
			continue
		}
		full++
		if tr.SojournNs <= 0 || tr.StageNs(trace.StageQueue) < 0 {
			t.Errorf("trace %d: sojourn %d", tr.ID, tr.SojournNs)
		}
		if tr.R != 1 {
			t.Errorf("trace %d R = %d", tr.ID, tr.R)
		}
	}
	if full != n {
		t.Fatalf("committed %d full traces, want %d", full, n)
	}
}

// TestFlightRecorderBatchPath drives PublishBatch through the serial
// batch-run committer with tracing on and checks every member's trace
// lands with a transmit span (the per-run share) and a sojourn.
func TestFlightRecorderBatchPath(t *testing.T) {
	rec := newTestRecorder(t, trace.Config{SampleEvery: 1})
	b := newTestBroker(t, Options{Engine: EngineFaithful, Tracer: rec, SubscriberBuffer: 512})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go drain(sub, &wg)

	const batches, size = 10, 8
	ctx := context.Background()
	for i := 0; i < batches; i++ {
		msgs := make([]*jms.Message, size)
		for j := range msgs {
			msgs[j] = jms.NewMessage("t")
			msgs[j].Header.TraceID = trace.NewID(11, uint64(i*size+j+1))
		}
		if err := b.PublishBatch(ctx, msgs); err != nil {
			t.Fatal(err)
		}
	}
	waitDispatched(t, b, batches*size)
	rec.Flush()
	var full int
	for _, tr := range rec.List(0) {
		if !tr.Complete || tr.Skeleton {
			continue
		}
		full++
		if tr.SojournNs <= 0 {
			t.Errorf("batch trace %d without sojourn", tr.ID)
		}
		found := false
		for _, sp := range tr.Spans {
			if sp.Stage == trace.StageTransmit {
				found = true
			}
		}
		if !found {
			t.Errorf("batch trace %d without transmit span", tr.ID)
		}
	}
	if full != batches*size {
		t.Fatalf("committed %d full traces, want %d", full, batches*size)
	}
}

// TestFlightRecorderTailSkeletons: unsampled messages (huge SampleEvery)
// still surface through the tail keeper as skeleton traces when
// waiting-time tracing provides the dispatch-start timestamp.
func TestFlightRecorderTailSkeletons(t *testing.T) {
	rec := newTestRecorder(t, trace.Config{SampleEvery: 1 << 40, TailKeep: 32})
	b := newTestBroker(t, Options{Engine: EngineFaithful, Tracer: rec, WaitTiming: true, SubscriberBuffer: 512})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go drain(sub, &wg)

	const n = 10
	ctx := context.Background()
	var ids []uint64
	for i := 1; len(ids) < n; i++ {
		id := trace.NewID(13, uint64(i))
		if rec.Sampled(id) {
			continue // keep the test about the unsampled path
		}
		ids = append(ids, id)
		m := jms.NewMessage("t")
		m.Header.TraceID = id
		if err := b.Publish(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	waitDispatched(t, b, n)
	rec.Flush()
	byID := make(map[uint64]*trace.Trace)
	for _, tr := range rec.List(0) {
		byID[tr.ID] = tr
	}
	if len(byID) != n {
		t.Fatalf("tail kept %d traces, want %d", len(byID), n)
	}
	for _, id := range ids {
		tr := byID[id]
		if tr == nil {
			t.Fatalf("id %d not tail-retained", id)
		}
		if !tr.Skeleton || !tr.Complete {
			t.Errorf("trace %d skeleton=%v complete=%v", id, tr.Skeleton, tr.Complete)
		}
		if tr.SojournNs <= 0 || len(tr.Spans) != 1 || tr.Spans[0].Stage != trace.StageQueue {
			t.Errorf("skeleton %d: sojourn=%d spans=%v", id, tr.SojournNs, tr.Spans)
		}
	}
	if s := rec.Stats(); s.Started != 0 {
		t.Errorf("unsampled run started %d full traces", s.Started)
	}
}

// TestTracedDeliveryUnchanged is the metamorphic leg: the same filter
// population fed the same message stream must deliver identical
// per-subscriber multisets with the flight recorder on (SampleEvery=1)
// and off, on both engines — observation must not perturb routing.
func TestTracedDeliveryUnchanged(t *testing.T) {
	const (
		nSubs     = 20
		nMessages = 150
		seed      = 41
	)
	rng := rand.New(rand.NewSource(seed))
	filters := make([]filter.Filter, nSubs)
	for i := range filters {
		filters[i] = metamorphicFilter(t, rng, true)
	}
	msgs := make([]*jms.Message, nMessages)
	for i := range msgs {
		msgs[i] = metamorphicMessage(t, rng, fmt.Sprintf("m%d", i))
		msgs[i].Header.TraceID = trace.NewID(17, uint64(i+1))
	}

	run := func(t *testing.T, engine Engine, shards int, traced bool) [][]string {
		t.Helper()
		opts := Options{Engine: engine, Shards: shards, SubscriberBuffer: nMessages, InFlight: 64}
		if traced {
			opts.Tracer = newTestRecorder(t, trace.Config{SampleEvery: 1})
		}
		b := New(opts)
		defer func() { _ = b.Close() }()
		if err := b.ConfigureTopic("t"); err != nil {
			t.Fatal(err)
		}
		subs := make([]*Subscriber, nSubs)
		for i, f := range filters {
			s, err := b.Subscribe("t", f)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = s
		}
		for _, m := range msgs {
			if err := b.Publish(context.Background(), m.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range filters {
			var want uint64
			for _, m := range msgs {
				if f.Matches(m) {
					want++
				}
			}
			deadline := time.Now().Add(20 * time.Second)
			for subs[i].Delivered() != want {
				if time.Now().After(deadline) {
					t.Fatalf("subscriber %d: delivered %d, want %d", i, subs[i].Delivered(), want)
				}
				time.Sleep(time.Millisecond)
			}
		}
		got := make([][]string, nSubs)
		for i, s := range subs {
			for _, m := range drainQueued(s) {
				got[i] = append(got[i], string(m.Body))
			}
			sort.Strings(got[i])
		}
		return got
	}

	for _, tc := range []struct {
		name   string
		engine Engine
		shards int
	}{
		{"faithful", EngineFaithful, 0},
		{"fast", EngineFast, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := run(t, tc.engine, tc.shards, false)
			traced := run(t, tc.engine, tc.shards, true)
			for i := range plain {
				if fmt.Sprint(plain[i]) != fmt.Sprint(traced[i]) {
					t.Errorf("subscriber %d (%v): tracing changed deliveries\nplain  %v\ntraced %v",
						i, filters[i], plain[i], traced[i])
				}
			}
		})
	}
}
