package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/jms"
)

// fuzzSeedFrames returns well-formed frames of every payload-bearing
// type, so the fuzzer starts from the interesting part of the input
// space instead of having to rediscover the frame prologue.
func fuzzSeedFrames() []Frame {
	m := jms.NewMessage("orders")
	_ = m.SetCorrelationID("#7")
	_ = m.SetBoolProperty("urgent", true)
	_ = m.SetInt32Property("qty", 12)
	_ = m.SetInt64Property("ts", 1<<40)
	_ = m.SetFloat64Property("price", 9.75)
	_ = m.SetStringProperty("region", "emea")
	m.SetBody([]byte("payload bytes"))
	return []Frame{
		{Type: FramePublish, Payload: EncodeMessage(m)},
		{Type: FrameMessage, Payload: EncodeDelivery(3, 41, m)},
		{Type: FrameFanout, Payload: AppendFanout(nil, []DeliveryRef{{SubID: 3, Seq: 41}, {SubID: 4}}, m)},
		{Type: FrameSubscribe, Payload: EncodeSubscribe("orders", FilterSpec{
			Mode:        FilterSelector,
			Expr:        "qty > 10 AND region = 'emea'",
			DurableName: "audit",
			Acked:       true,
		})},
		{Type: FramePubAck, Payload: EncodeU64(99)},
		{Type: FrameMsgAck, Payload: EncodeAck(3, 41)},
		{Type: FrameError, Payload: EncodeError(7, "no such topic")},
		{Type: FrameSubClosed, Payload: EncodeSubClosed(5, "slow-consumer")},
		{Type: FrameConfigureTopic, Payload: EncodeString("orders")},
		{Type: FramePing},
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the framing layer and
// every payload decoder. Decoders must reject garbage with an error —
// never panic, never over-read — and anything they accept must survive
// a canonical re-encode/decode round trip (encode∘decode is a fixpoint:
// the second encoding equals the first).
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range fuzzSeedFrames() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Malformed seeds: truncated header, oversized length, short payload.
	f.Add([]byte{0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(FramePublish)})
	f.Add([]byte{0, 0, 0, 9, byte(FramePublish), 1, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			// Rejections must be one of the framing layer's declared
			// failure modes, not something leaking from deeper layers.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("ReadFrame: unexpected error class: %v", err)
			}
			return
		}

		// The frame itself must round-trip through WriteFrame.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("WriteFrame(%v) of a read frame: %v", fr.Type, err)
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame of rewritten frame: %v", err)
		}
		if back.Type != fr.Type || !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("frame round trip changed: %v/%x vs %v/%x",
				fr.Type, fr.Payload, back.Type, back.Payload)
		}

		switch fr.Type {
		case FramePublish:
			m, err := DecodeMessage(fr.Payload)
			if err != nil {
				return
			}
			checkMessageFixpoint(t, m)
		case FrameMessage:
			subID, seq, m, err := DecodeDelivery(fr.Payload)
			if err != nil {
				return
			}
			reenc := EncodeDelivery(subID, seq, m)
			subID2, seq2, m2, err := DecodeDelivery(reenc)
			if err != nil {
				t.Fatalf("re-decode of re-encoded delivery: %v", err)
			}
			if subID2 != subID || seq2 != seq {
				t.Fatalf("delivery ids changed: (%d,%d) vs (%d,%d)", subID, seq, subID2, seq2)
			}
			if !bytes.Equal(EncodeMessage(m), EncodeMessage(m2)) {
				t.Fatal("delivery message changed across round trip")
			}
		case FrameFanout:
			refs, m, err := DecodeFanout(fr.Payload)
			if err != nil {
				return
			}
			refs2, m2, err := DecodeFanout(AppendFanout(nil, refs, m))
			if err != nil {
				t.Fatalf("re-decode of re-encoded fanout: %v", err)
			}
			if fmt.Sprint(refs2) != fmt.Sprint(refs) {
				t.Fatalf("fanout subscriptions changed: %v vs %v", refs, refs2)
			}
			if !bytes.Equal(EncodeMessage(m), EncodeMessage(m2)) {
				t.Fatal("fanout message changed across round trip")
			}
		case FrameSubscribe:
			topic, spec, err := DecodeSubscribe(fr.Payload)
			if err != nil {
				return
			}
			topic2, spec2, err := DecodeSubscribe(EncodeSubscribe(topic, spec))
			if err != nil {
				t.Fatalf("re-decode of re-encoded subscribe: %v", err)
			}
			if topic2 != topic || spec2 != spec {
				t.Fatalf("subscribe changed: %q %+v vs %q %+v", topic, spec, topic2, spec2)
			}
		case FrameError:
			reqID, msg, err := DecodeError(fr.Payload)
			if err != nil {
				return
			}
			reqID2, msg2, err := DecodeError(EncodeError(reqID, msg))
			if err != nil || reqID2 != reqID || msg2 != msg {
				t.Fatalf("error frame changed: (%d,%q,%v)", reqID2, msg2, err)
			}
		case FrameSubClosed:
			subID, reason, err := DecodeSubClosed(fr.Payload)
			if err != nil {
				return
			}
			subID2, reason2, err := DecodeSubClosed(EncodeSubClosed(subID, reason))
			if err != nil || subID2 != subID || reason2 != reason {
				t.Fatalf("sub-closed changed: (%d,%q,%v)", subID2, reason2, err)
			}
		case FrameMsgAck:
			subID, seq, err := DecodeAck(fr.Payload)
			if err != nil {
				return
			}
			subID2, seq2, err := DecodeAck(EncodeAck(subID, seq))
			if err != nil || subID2 != subID || seq2 != seq {
				t.Fatalf("ack changed: (%d,%d,%v)", subID2, seq2, err)
			}
		case FramePubAck, FrameSubscribeOK, FrameUnsubscribe:
			if v, err := DecodeU64(fr.Payload); err == nil {
				if v2, err := DecodeU64(EncodeU64(v)); err != nil || v2 != v {
					t.Fatalf("u64 changed: (%d,%v)", v2, err)
				}
			}
		case FrameConfigureTopic, FrameDeleteDurable:
			if s, err := DecodeString(fr.Payload); err == nil {
				if s2, err := DecodeString(EncodeString(s)); err != nil || s2 != s {
					t.Fatalf("string changed: (%q,%v)", s2, err)
				}
			}
		}
	})
}

// FuzzDecodeBatch feeds arbitrary bytes through the MSG_BATCH payload
// decoder. Like FuzzDecodeFrame, the contract is: reject garbage with an
// error (never panic, never over-read), and any accepted batch must make
// re-encoding a fixpoint — the re-encoded payload decodes to the same
// messages and encodes identically a second time.
func FuzzDecodeBatch(f *testing.F) {
	m := jms.NewMessage("orders")
	_ = m.SetCorrelationID("#7")
	_ = m.SetInt32Property("qty", 12)
	_ = m.SetStringProperty("region", "emea")
	m.SetBody([]byte("payload bytes"))
	small := jms.NewMessage("t")
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch([]*jms.Message{small}))
	f.Add(EncodeBatch([]*jms.Message{m, small, m}))
	// Malformed seeds: short count, count exceeding payload, inflated
	// per-message length prefix, trailing garbage.
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{0, 0, 0, 9, 0, 0})
	f.Add(append(EncodeBatch([]*jms.Message{small}), 0xab))

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := DecodeBatch(data)
		if err != nil {
			return
		}
		reenc := EncodeBatch(msgs)
		back, err := DecodeBatch(reenc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch: %v", err)
		}
		if len(back) != len(msgs) {
			t.Fatalf("batch count changed: %d vs %d", len(msgs), len(back))
		}
		for i := range msgs {
			if !bytes.Equal(EncodeMessage(msgs[i]), EncodeMessage(back[i])) {
				t.Fatalf("batch message %d changed across round trip", i)
			}
		}
		if again := EncodeBatch(back); !bytes.Equal(again, reenc) {
			t.Fatalf("batch encoding not a fixpoint:\n%x\n%x", reenc, again)
		}
	})
}

// FuzzDecodeMessageView holds the lazy decoder to DecodeMessage,
// byte-for-byte: for arbitrary payloads, ParseMessageView (and arena
// materialization through it) must accept exactly the payloads
// DecodeMessage accepts, and on acceptance both paths must materialize
// messages with identical canonical encodings.
func FuzzDecodeMessageView(f *testing.F) {
	m := jms.NewMessage("orders")
	_ = m.SetCorrelationID("#7")
	_ = m.SetBoolProperty("urgent", true)
	_ = m.SetInt32Property("qty", 12)
	_ = m.SetInt64Property("ts", 1<<40)
	_ = m.SetFloat64Property("price", 9.75)
	_ = m.SetStringProperty("region", "emea")
	m.SetBody([]byte("payload bytes"))
	f.Add(EncodeMessage(m))
	f.Add(EncodeMessage(jms.NewMessage("t")))
	// Malformed seeds: truncations, trailing garbage, and a property name
	// starting with a digit — distinct rejection paths the two decoders
	// must agree on.
	valid := EncodeMessage(m)
	f.Add(valid[:9])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0xff))
	var e encoder
	e.u64(0)
	e.str("t")
	e.str("")
	e.u8(1)
	e.u8(4)
	e.i64(0)
	e.i64(0)
	e.u64(0)
	e.u32(1)
	e.str("9bad")
	e.u8(uint8(jms.TypeBool))
	e.u8(1)
	e.u32(0)
	f.Add(e.buf)
	// Names out of order and repeated with different types: the section
	// must come out sorted, the last value of each name winning.
	e = encoder{}
	e.u64(0)
	e.str("t")
	e.str("")
	e.u8(1)
	e.u8(4)
	e.i64(0)
	e.i64(0)
	e.u64(0)
	e.u32(4)
	e.str("zeta")
	e.u8(uint8(jms.TypeInt64))
	e.i64(1)
	e.str("alpha")
	e.u8(uint8(jms.TypeString))
	e.str("first")
	e.str("zeta")
	e.u8(uint8(jms.TypeBool))
	e.u8(1)
	e.str("alpha")
	e.u8(uint8(jms.TypeString))
	e.str("last")
	e.u32(0)
	f.Add(e.buf)
	// A longer section, descending with every name twice: the decoders'
	// sort-then-set path (TestDecodeManyPropertiesScales holds its cost).
	var names []string
	for i := 40; i > 0; i-- {
		names = append(names, fmt.Sprintf("p%02d", i), fmt.Sprintf("p%02d", i))
	}
	f.Add(manyPropertiesPayload(names))
	// The message section of a delivery whose body is exactly at the
	// by-reference cut-over: on the wire it is a head and a body gathered
	// from two buffers, and the decoders must not be able to tell.
	cut := jms.NewMessage("orders")
	_ = cut.SetStringProperty("region", "emea")
	cut.SetBody(bytes.Repeat([]byte{0xb0}, bodyByRefMin))
	f.Add(EncodeDelivery(7, 1, cut)[16:])

	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := DecodeMessage(data)
		v, viewErr := ParseMessageView(data)
		if (refErr == nil) != (viewErr == nil) {
			t.Fatalf("decoders disagree: DecodeMessage err=%v, ParseMessageView err=%v", refErr, viewErr)
		}
		arena := NewMessageArena()
		got, arenaErr := arena.DecodeMessageArena(data)
		if (refErr == nil) != (arenaErr == nil) {
			t.Fatalf("decoders disagree: DecodeMessage err=%v, DecodeMessageArena err=%v", refErr, arenaErr)
		}
		if refErr != nil {
			return
		}

		// View accessors must report the reference header.
		if v.MessageID() != ref.Header.MessageID ||
			string(v.TopicBytes()) != ref.Header.Topic ||
			string(v.CorrelationIDBytes()) != ref.Header.CorrelationID ||
			v.DeliveryMode() != ref.Header.DeliveryMode ||
			v.Priority() != ref.Header.Priority ||
			v.TraceID() != ref.Header.TraceID {
			t.Fatal("view header accessors diverge from DecodeMessage")
		}
		if !bytes.Equal(v.Body(), ref.Body) {
			t.Fatalf("view body %x diverges from DecodeMessage body %x", v.Body(), ref.Body)
		}
		// Wire order can carry duplicate names; the view counts entries,
		// the materialized section collapses them.
		if v.NumProperties() < ref.NumProperties() {
			t.Fatalf("view NumProperties %d < materialized %d", v.NumProperties(), ref.NumProperties())
		}
		// The oracle for the property section is a map filled in wire
		// order, independent of either decoder and of the encoder.
		var walked int
		want := map[string]jms.Property{}
		v.EachProperty(func(p PropertyView) bool {
			walked++
			want[string(p.Name)] = jms.Property{Type: p.Type, B: p.Bool, I: p.Int, F: p.F, S: string(p.Str)}
			return true
		})
		if walked != v.NumProperties() {
			t.Fatalf("EachProperty walked %d of %d", walked, v.NumProperties())
		}
		for who, m := range map[string]*jms.Message{"DecodeMessage": ref, "arena": got} {
			names := m.PropertyNames()
			if len(names) != len(want) || !sort.StringsAreSorted(names) {
				t.Fatalf("%s: property names %q, want the %d of %v sorted", who, names, len(want), want)
			}
			for name, w := range want {
				p, ok := m.Property(name)
				if w.Type == jms.TypeInt32 {
					w.I = int64(int32(w.I)) // the wire carries 64 bits, the type keeps 32
				}
				if !ok || p.Type != w.Type || p.B != w.B || p.I != w.I || p.S != w.S ||
					math.Float64bits(p.F) != math.Float64bits(w.F) {
					t.Fatalf("%s: property %q = (%+v, %v), want last-wins %+v", who, name, p, ok, w)
				}
			}
		}

		// Both materializations must agree canonically.
		if !bytes.Equal(EncodeMessage(ref), EncodeMessage(got)) {
			t.Fatal("arena materialization diverges from DecodeMessage")
		}
		checkMessageFixpoint(t, got)
	})
}

// FuzzDecodeFanout holds the subscriber's into-slab fan-out decode to
// DecodeFanout: for arbitrary payloads, ParseFanout followed by
// MaterializeInto the last message of a slab of R must accept exactly the
// payloads DecodeFanout accepts, name the same subscriptions, and
// materialize the same message — and the R − 1 views SharedInto fills the
// rest of the slab with must encode as that message too.
func FuzzDecodeFanout(f *testing.F) {
	m := jms.NewMessage("orders")
	_ = m.SetCorrelationID("#7")
	_ = m.SetInt32Property("qty", 12)
	_ = m.SetStringProperty("region", "emea")
	m.SetBody([]byte("payload bytes"))
	refs := []DeliveryRef{{SubID: 3}, {SubID: 9, Seq: 41}, {SubID: 12}}
	valid := AppendFanout(nil, refs, m)
	f.Add(valid)
	f.Add(AppendFanout(nil, refs[:1], jms.NewMessage("t")))
	// Malformed seeds: a fanout to nobody, a count past the payload, a
	// truncated message and trailing garbage.
	f.Add(AppendFanout(nil, nil, m))
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<20))
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		wantRefs, ref, refErr := DecodeFanout(data)
		refs, v, err := ParseFanout(nil, data)
		var msgs []jms.Message
		if err == nil {
			msgs = make([]jms.Message, len(refs))
			err = NewMessageArena().MaterializeInto(&msgs[len(refs)-1], &v)
		}
		if (refErr == nil) != (err == nil) {
			t.Fatalf("decoders disagree: DecodeFanout err=%v, ParseFanout + MaterializeInto err=%v", refErr, err)
		}
		if refErr != nil {
			return
		}
		if !reflect.DeepEqual(refs, wantRefs) {
			t.Fatalf("subscriptions %v, DecodeFanout names %v", refs, wantRefs)
		}
		got := &msgs[len(msgs)-1]
		want := EncodeMessage(ref)
		if !bytes.Equal(EncodeMessage(got), want) {
			t.Fatal("into-slab materialization diverges from DecodeFanout")
		}
		got.SharedInto(msgs[:len(msgs)-1])
		for i := range msgs[:len(msgs)-1] {
			if !bytes.Equal(EncodeMessage(&msgs[i]), want) {
				t.Fatalf("view %d diverges from the decoded message", i)
			}
		}
		checkMessageFixpoint(t, got)
	})
}

// FuzzDecodeForward feeds arbitrary bytes through the FORWARD payload
// decoder. The contract mirrors the other decoders — reject garbage with
// an error, never panic, never over-read — plus one stronger property the
// verbatim-wrapping design makes possible: decode is a pure view, so
// re-encoding an accepted payload must reproduce the input bytes exactly.
func FuzzDecodeForward(f *testing.F) {
	m := jms.NewMessage("orders")
	_ = m.SetCorrelationID("#7")
	_ = m.SetInt32Property("qty", 12)
	m.SetBody([]byte("payload bytes"))
	small := jms.NewMessage("t")
	f.Add(AppendForward(nil, ForwardHeader{Origin: 0, Hops: 1}, EncodeMessage(m)))
	f.Add(AppendForward(nil, ForwardHeader{Origin: 2, Hops: 1, Batch: true},
		EncodeBatch([]*jms.Message{m, small})))
	f.Add(AppendForward(nil, ForwardHeader{Origin: 1, Hops: MaxForwardHops}, EncodeMessage(small)))
	// Malformed seeds: truncated header, zero and oversized hop counts,
	// unknown flag bits, missing inner payload.
	f.Add([]byte{0, 0, 0, 1, 1})
	f.Add(AppendForward(nil, ForwardHeader{Hops: 0}, []byte{1}))
	f.Add(AppendForward(nil, ForwardHeader{Hops: MaxForwardHops + 1}, []byte{1}))
	f.Add([]byte{0, 0, 0, 0, 1, 0x80, 1})
	f.Add(AppendForward(nil, ForwardHeader{Hops: 1}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, inner, err := DecodeForward(data)
		if err != nil {
			return
		}
		if h.Hops == 0 || h.Hops > MaxForwardHops {
			t.Fatalf("accepted hop count %d outside [1,%d]", h.Hops, MaxForwardHops)
		}
		if len(inner) == 0 {
			t.Fatal("accepted a forward with no inner payload")
		}
		if reenc := AppendForward(nil, h, inner); !bytes.Equal(reenc, data) {
			t.Fatalf("forward re-encode changed bytes:\n%x\n%x", data, reenc)
		}
		// The inner bytes feed the same decoders the server applies; they
		// must reject-or-accept cleanly, never panic.
		if h.Batch {
			_, _ = DecodeBatch(inner)
		} else {
			_, _ = DecodeMessage(inner)
		}
	})
}

// checkMessageFixpoint asserts that encoding a decoded message is a
// fixpoint: properties are canonically ordered (sorted names), so the
// second encoding must be byte-identical to the first.
func checkMessageFixpoint(t *testing.T, m *jms.Message) {
	t.Helper()
	enc1 := EncodeMessage(m)
	m2, err := DecodeMessage(enc1)
	if err != nil {
		t.Fatalf("re-decode of re-encoded message: %v", err)
	}
	enc2 := EncodeMessage(m2)
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("message encoding not a fixpoint:\n%x\n%x", enc1, enc2)
	}
}
