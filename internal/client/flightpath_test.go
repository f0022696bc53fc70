package client

import (
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
	"repro/internal/trace"
	"repro/internal/wire"
)

// startTracedServer is startServer with a flight recorder wired into both
// the wire frontend and the broker, sampling every message.
func startTracedServer(t testing.TB) (addr string, rec *trace.Recorder) {
	t.Helper()
	rec = trace.New(trace.Config{SampleEvery: 1, FinalizeAfter: time.Hour})
	b := broker.New(broker.Options{Tracer: rec})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.ServeWith(b, ln, wire.ServeOptions{Tracer: rec})
	t.Cleanup(func() {
		_ = srv.Close()
		_ = b.Close()
		rec.Close()
	})
	return ln.Addr().String(), rec
}

// awaitTrace waits until the still-active trace holds the broker's
// completion and the egress-write span of every delivery, then commits and
// returns it. Receiving a delivery does
// not order after that span — the connection's writer records it once the
// write call has returned, which the client's read can overtake — and a
// Flush before it lands would freeze the trace without it for good: a late
// span starts a new fragment, it does not reopen a committed trace.
func awaitTrace(t *testing.T, rec *trace.Recorder, id uint64, deliveries int) *trace.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := rec.Get(id)
		egressWrites := 0
		if got != nil {
			for _, sp := range got.Spans {
				if sp.Stage == trace.StageEgressWrite {
					egressWrites++
				}
			}
		}
		if egressWrites >= deliveries && got.SojournNs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %#x: %d of %d egress-write spans appeared (got %+v)", id, egressWrites, deliveries, got)
		}
		time.Sleep(time.Millisecond)
	}
	rec.Flush()
	tr, ok := rec.Get(id)
	if !ok || !tr.Complete {
		t.Fatalf("trace %#x not committed by Flush (got %+v)", id, tr)
	}
	return tr
}

// TestEndToEndSpanTree drives one traced message over the real TCP path
// and asserts the flight record contains the complete span tree: wire
// ingress and decode, the broker's queue/match/replicate/transmit, and
// the egress-side encode, writer-queue wait and writev share for each of
// the two deliveries.
func TestEndToEndSpanTree(t *testing.T) {
	addr, rec := startTracedServer(t)
	ctx := ctxT(t)

	subA := subscribeAll(t, addr, "t")
	subB := subscribeAll(t, addr, "t")
	pub := dialT(t, addr)

	const id = uint64(0xF11487)
	m := jms.NewMessage("t")
	m.Header.TraceID = id
	m.SetBody([]byte("flight"))
	if err := pub.Publish(ctx, m); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []*Subscription{subA, subB} {
		got, err := sub.Receive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.TraceID != id {
			t.Fatalf("delivered TraceID %#x", got.Header.TraceID)
		}
	}

	tr := awaitTrace(t, rec, id, 2)

	if tr.Topic != "t" || tr.R != 2 || tr.SojournNs <= 0 {
		t.Errorf("trace header: topic=%q R=%d sojourn=%d", tr.Topic, tr.R, tr.SojournNs)
	}
	counts := map[trace.Stage]int{}
	for _, sp := range tr.Spans {
		counts[sp.Stage]++
		if sp.DurNs < 0 || sp.StartNs <= 0 {
			t.Errorf("span %v with start=%d dur=%d", sp.Stage, sp.StartNs, sp.DurNs)
		}
	}
	for _, st := range []trace.Stage{
		trace.StageIngress, trace.StageDecode, trace.StageQueue,
		trace.StageMatch, trace.StageTransmit,
	} {
		if counts[st] != 1 {
			t.Errorf("stage %s recorded %d times, want 1", st, counts[st])
		}
	}
	// R=2 means one replicate plus per-delivery egress spans.
	if counts[trace.StageReplicate] != 1 {
		t.Errorf("replicate recorded %d times, want 1", counts[trace.StageReplicate])
	}
	for _, st := range []trace.Stage{trace.StageEncode, trace.StageEgressQueue, trace.StageEgressWrite} {
		if counts[st] != 2 {
			t.Errorf("stage %s recorded %d times, want 2 (one per delivery)", st, counts[st])
		}
	}
	// The ingress span precedes everything else in wall time.
	if tr.Spans[0].Stage != trace.StageIngress {
		t.Errorf("first span is %s, want ingress", tr.Spans[0].Stage)
	}
}

// TestBatchSpanTree checks the MSG_BATCH ingress path splits the shared
// frame read/decode across members: every sampled member of an explicit
// batch gets ingress and decode spans plus its own broker stages.
func TestBatchSpanTree(t *testing.T) {
	addr, rec := startTracedServer(t)
	ctx := ctxT(t)
	sub := subscribeAll(t, addr, "t")
	pub := dialT(t, addr)

	const n = 6
	msgs := make([]*jms.Message, n)
	for i := range msgs {
		msgs[i] = jms.NewMessage("t")
		msgs[i].Header.TraceID = uint64(0xB000 + i)
	}
	if err := pub.PublishBatch(ctx, msgs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := sub.Receive(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := range msgs {
		tr := awaitTrace(t, rec, msgs[i].Header.TraceID, 1)
		if tr.StageNs(trace.StageIngress) <= 0 && tr.StageNs(trace.StageDecode) <= 0 {
			t.Errorf("member %d: no ingress/decode span", i)
		}
		if tr.SojournNs <= 0 {
			t.Errorf("member %d: no sojourn", i)
		}
	}
}
