package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/jms"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: FramePing},
		{Type: FramePublish, Payload: []byte{1, 2, 3}},
		{Type: FrameMessage, Payload: make([]byte, 1024)},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame mismatch: got %v/%d bytes, want %v/%d bytes",
				got.Type, len(got.Payload), want.Type, len(want.Payload))
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FramePing, Payload: make([]byte, MaxFrameSize+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write err = %v", err)
	}
	// Craft an oversized header by hand.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(FramePing)})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read err = %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, byte(FramePublish), 1, 2}) // promises 10 bytes, has 2
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("truncated frame accepted")
	}
}

func newRichMessage(t testing.TB) *jms.Message {
	t.Helper()
	m := jms.NewMessage("presence")
	m.Header.MessageID = 42
	m.Header.Priority = 7
	m.Header.Timestamp = 1700000000000000000
	m.Header.Expiration = 1800000000000000000
	m.Header.TraceID = 0xCAFEBABEDEADBEEF
	if err := m.SetCorrelationID("#0"); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.SetBoolProperty("online", true))
	must(m.SetInt32Property("device", -7))
	must(m.SetInt64Property("big", 1<<40))
	must(m.SetFloat64Property("lat", 49.78))
	must(m.SetStringProperty("user", "alice"))
	m.Body = []byte{0xDE, 0xAD}
	return m
}

func TestMessageRoundTrip(t *testing.T) {
	m := newRichMessage(t)
	got, err := DecodeMessage(EncodeMessage(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.MessageID != 42 || got.Header.Topic != "presence" ||
		got.Header.CorrelationID != "#0" || got.Header.Priority != 7 {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if got.Header.Timestamp != m.Header.Timestamp {
		t.Errorf("timestamp = %d, want %d", got.Header.Timestamp, m.Header.Timestamp)
	}
	if got.Header.Expiration != m.Header.Expiration {
		t.Errorf("expiration = %d", got.Header.Expiration)
	}
	if got.Header.TraceID != 0xCAFEBABEDEADBEEF {
		t.Errorf("trace ID = %#x, want 0xCAFEBABEDEADBEEF", got.Header.TraceID)
	}
	if v, err := got.BoolProperty("online"); err != nil || !v {
		t.Errorf("online = %v, %v", v, err)
	}
	if v, err := got.Int64Property("device"); err != nil || v != -7 {
		t.Errorf("device = %v, %v", v, err)
	}
	if v, err := got.Int64Property("big"); err != nil || v != 1<<40 {
		t.Errorf("big = %v, %v", v, err)
	}
	if v, err := got.Float64Property("lat"); err != nil || v != 49.78 {
		t.Errorf("lat = %v, %v", v, err)
	}
	if v, err := got.StringProperty("user"); err != nil || v != "alice" {
		t.Errorf("user = %v, %v", v, err)
	}
	if !bytes.Equal(got.Body, m.Body) {
		t.Errorf("body = %x", got.Body)
	}
}

func TestMessageRoundTripMinimal(t *testing.T) {
	m := jms.NewMessage("t")
	got, err := DecodeMessage(EncodeMessage(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Topic != "t" || got.NumProperties() != 0 || got.Body != nil {
		t.Errorf("minimal round trip mismatch: %+v", got)
	}
	if got.Header.Timestamp != 0 || got.Header.Expiration != 0 {
		t.Error("zero times not preserved")
	}
}

func TestDecodeMessageTruncated(t *testing.T) {
	m := newRichMessage(t)
	full := EncodeMessage(m)
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeMessage(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeMessageTrailingGarbage(t *testing.T) {
	m := jms.NewMessage("t")
	payload := append(EncodeMessage(m), 0xFF)
	if _, err := DecodeMessage(payload); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	specs := []FilterSpec{
		{Mode: FilterNone},
		{Mode: FilterCorrelationID, Expr: "[7;13]"},
		{Mode: FilterSelector, Expr: "user = 'alice' AND age > 3"},
		{Mode: FilterNone, DurableName: "audit", Acked: true},
	}
	for _, spec := range specs {
		payload := EncodeSubscribe("presence", spec)
		topicName, got, err := DecodeSubscribe(payload)
		if err != nil {
			t.Fatal(err)
		}
		if topicName != "presence" || got != spec {
			t.Errorf("got %q %+v, want presence %+v", topicName, got, spec)
		}
	}
}

func TestDeliveryRoundTrip(t *testing.T) {
	m := newRichMessage(t)
	subID, seq, got, err := DecodeDelivery(EncodeDelivery(99, 41, m))
	if err != nil {
		t.Fatal(err)
	}
	if subID != 99 || seq != 41 {
		t.Errorf("subID, seq = %d, %d", subID, seq)
	}
	if got.Header.CorrelationID != "#0" {
		t.Errorf("corrID = %q", got.Header.CorrelationID)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	reqID, msg, err := DecodeError(EncodeError(7, "boom"))
	if err != nil || reqID != 7 || msg != "boom" {
		t.Errorf("got %d %q %v", reqID, msg, err)
	}
}

func TestU64AndStringRoundTrip(t *testing.T) {
	v, err := DecodeU64(EncodeU64(1 << 63))
	if err != nil || v != 1<<63 {
		t.Errorf("u64 = %d, %v", v, err)
	}
	s, err := DecodeString(EncodeString("héllo"))
	if err != nil || s != "héllo" {
		t.Errorf("string = %q, %v", s, err)
	}
	if _, err := DecodeU64(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty u64 err = %v", err)
	}
}

// TestMessagePropertyRoundTripQuick: arbitrary string/int property values
// survive the codec.
func TestMessagePropertyRoundTripQuick(t *testing.T) {
	f := func(s string, i int64, fl float64, b bool) bool {
		m := jms.NewMessage("t")
		if err := m.SetStringProperty("s", s); err != nil {
			return false
		}
		if err := m.SetInt64Property("i", i); err != nil {
			return false
		}
		if err := m.SetFloat64Property("f", fl); err != nil {
			return false
		}
		if err := m.SetBoolProperty("b", b); err != nil {
			return false
		}
		got, err := DecodeMessage(EncodeMessage(m))
		if err != nil {
			return false
		}
		gs, err1 := got.StringProperty("s")
		gi, err2 := got.Int64Property("i")
		gf, err3 := got.Float64Property("f")
		gb, err4 := got.BoolProperty("b")
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		// NaN != NaN: compare bit patterns via == only when not NaN.
		floatOK := gf == fl || (fl != fl && gf != gf)
		return gs == s && gi == i && floatOK && gb == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameTypeString(t *testing.T) {
	if FramePublish.String() != "PUBLISH" || FrameMessage.String() != "MESSAGE" {
		t.Error("FrameType.String mismatch")
	}
	if FrameType(200).String() != "FrameType(200)" {
		t.Error("unknown FrameType.String mismatch")
	}
}

func BenchmarkEncodeMessage(b *testing.B) {
	m := newRichMessage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeMessage(m)
	}
}

func BenchmarkDecodeMessage(b *testing.B) {
	payload := EncodeMessage(newRichMessage(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodersNeverPanic feeds random bytes to every decoder; they must
// return errors or garbage values, never panic or over-read.
func TestDecodersNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		n := r.Intn(64)
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(r.Intn(256))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("decoder panicked on %x: %v", payload, p)
				}
			}()
			_, _ = DecodeMessage(payload)
			_, _, _ = DecodeSubscribe(payload)
			_, _, _, _ = DecodeDelivery(payload)
			_, _, _ = DecodeError(payload)
			_, _, _ = DecodeAck(payload)
			_, _ = DecodeU64(payload)
			_, _ = DecodeString(payload)
		}()
	}
}

// TestDecodeMutatedMessages flips bytes in valid encodings; decoding must
// never panic and, when it succeeds, must yield a valid message.
func TestDecodeMutatedMessages(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	base := EncodeMessage(newRichMessage(t))
	for i := 0; i < 20000; i++ {
		payload := make([]byte, len(base))
		copy(payload, base)
		for flips := r.Intn(4) + 1; flips > 0; flips-- {
			payload[r.Intn(len(payload))] ^= byte(1 << r.Intn(8))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("decoder panicked on mutated payload: %v", p)
				}
			}()
			if m, err := DecodeMessage(payload); err == nil {
				// Round-trip sanity: a successfully decoded message
				// re-encodes without panicking.
				_ = EncodeMessage(m)
			}
		}()
	}
}

func testMessage(t *testing.T) *jms.Message {
	t.Helper()
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID("#7"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt64Property("seq", 42); err != nil {
		t.Fatal(err)
	}
	m.Body = []byte("payload")
	return m
}

// TestAppendMessageMatchesEncode checks that the append path produces the
// identical encoding to EncodeMessage, including when appending after
// existing bytes.
func TestAppendMessageMatchesEncode(t *testing.T) {
	m := testMessage(t)
	want := EncodeMessage(m)
	got := AppendMessage(nil, m)
	if !bytes.Equal(got, want) {
		t.Error("AppendMessage(nil, m) differs from EncodeMessage(m)")
	}
	prefixed := AppendMessage([]byte{0xAA, 0xBB}, m)
	if !bytes.Equal(prefixed[2:], want) {
		t.Error("AppendMessage after a prefix corrupted the encoding")
	}
	if prefixed[0] != 0xAA || prefixed[1] != 0xBB {
		t.Error("AppendMessage overwrote the prefix")
	}
	if _, err := DecodeMessage(got); err != nil {
		t.Fatalf("DecodeMessage of appended encoding: %v", err)
	}
}

// TestEncodeMessagePreSized checks the pre-sizing: the one buffer
// allocated up front is large enough that encoding never grows it.
func TestEncodeMessagePreSized(t *testing.T) {
	m := testMessage(t)
	buf := make([]byte, 0, MessageSizeHint(m))
	out := AppendMessage(buf, m)
	if cap(out) != cap(buf) {
		t.Errorf("encoding grew the pre-sized buffer: hint %d, need %d", MessageSizeHint(m), len(out))
	}
}

func TestAppendDeliveryMatchesEncode(t *testing.T) {
	m := testMessage(t)
	want := EncodeDelivery(9, 3, m)
	got := AppendDelivery(nil, 9, 3, m)
	if !bytes.Equal(got, want) {
		t.Error("AppendDelivery differs from EncodeDelivery")
	}
	subID, seq, dm, err := DecodeDelivery(got)
	if err != nil {
		t.Fatal(err)
	}
	if subID != 9 || seq != 3 || dm.Header.CorrelationID != "#7" {
		t.Errorf("DecodeDelivery = (%d, %d, %q), want (9, 3, #7)", subID, seq, dm.Header.CorrelationID)
	}
}

// TestBufferPoolRoundTrip checks GetBuffer/PutBuffer reuse and the cap
// guard against pinning oversized buffers.
func TestBufferPoolRoundTrip(t *testing.T) {
	bp := GetBuffer()
	if len(*bp) != 0 {
		t.Fatalf("pooled buffer has length %d, want 0", len(*bp))
	}
	*bp = append(*bp, 1, 2, 3)
	PutBuffer(bp)
	bp2 := GetBuffer()
	if len(*bp2) != 0 {
		t.Error("PutBuffer must reset the buffer length")
	}
	PutBuffer(bp2)

	huge := make([]byte, 0, maxPooledBuffer+1)
	PutBuffer(&huge) // must be dropped, not pooled
	bp3 := GetBuffer()
	if cap(*bp3) > maxPooledBuffer {
		t.Error("PutBuffer pooled an oversized buffer")
	}
	PutBuffer(bp3)
}
