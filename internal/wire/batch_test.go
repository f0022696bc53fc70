package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/jms"
)

// randomMessage builds one message from a seeded source: random topic,
// headers, a property set covering every property type, and a random body.
// It is the generator behind the property-based batch codec tests.
func randomMessage(rng *rand.Rand) *jms.Message {
	topics := []string{"t", "orders", "telemetry/eu", "a-rather-long-topic-name"}
	m := jms.NewMessage(topics[rng.Intn(len(topics))])
	if rng.Intn(2) == 0 {
		_ = m.SetCorrelationID("#" + strings.Repeat("c", rng.Intn(8)))
	}
	if rng.Intn(2) == 0 {
		m.Header.DeliveryMode = jms.NonPersistent
	}
	m.Header.Priority = int8(rng.Intn(10))
	m.Header.MessageID = rng.Uint64()
	m.Header.TraceID = rng.Uint64() >> uint(rng.Intn(64))
	if rng.Intn(2) == 0 {
		m.Header.Timestamp = rng.Int63()
	}
	if rng.Intn(4) == 0 {
		m.Header.Expiration = rng.Int63()
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		name := string(rune('a' + i))
		switch rng.Intn(5) {
		case 0:
			_ = m.SetBoolProperty(name, rng.Intn(2) == 0)
		case 1:
			_ = m.SetInt32Property(name, int32(rng.Int31()))
		case 2:
			_ = m.SetInt64Property(name, rng.Int63())
		case 3:
			_ = m.SetFloat64Property(name, rng.NormFloat64())
		default:
			_ = m.SetStringProperty(name, strings.Repeat("v", rng.Intn(16)))
		}
	}
	if n := rng.Intn(128); n > 0 {
		body := make([]byte, n)
		rng.Read(body)
		m.SetBody(body)
	}
	return m
}

// TestBatchRoundTripProperty drives decode(encode(batch)) == identity over
// seeded random batches of varying counts, sizes and header shapes. The
// canonical message encoding is the equality witness: two messages are the
// same iff their EncodeMessage bytes are.
func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		count := rng.Intn(20)
		msgs := make([]*jms.Message, count)
		for i := range msgs {
			msgs[i] = randomMessage(rng)
		}
		payload := EncodeBatch(msgs)
		got, err := DecodeBatch(payload)
		if err != nil {
			t.Fatalf("trial %d: DecodeBatch: %v", trial, err)
		}
		if len(got) != len(msgs) {
			t.Fatalf("trial %d: decoded %d messages, want %d", trial, len(got), len(msgs))
		}
		for i := range msgs {
			want := EncodeMessage(msgs[i])
			have := EncodeMessage(got[i])
			if !bytes.Equal(want, have) {
				t.Fatalf("trial %d: message %d changed across round trip:\n%x\n%x",
					trial, i, want, have)
			}
		}
		// Re-encoding the decoded batch must be byte-identical (the codec
		// is canonical: properties are sorted on encode).
		if again := EncodeBatch(got); !bytes.Equal(again, payload) {
			t.Fatalf("trial %d: batch encoding not a fixpoint", trial)
		}
	}
}

// TestBatchOfOneWireCompatible pins the compatibility guarantee a batch of
// one relies on: the message bytes inside a MSG_BATCH are exactly the
// bytes of a plain PUBLISH payload, so a consumer-side MESSAGE path never
// sees a difference between a batched and an unbatched publish.
func TestBatchOfOneWireCompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := randomMessage(rng)
		batch := EncodeBatch([]*jms.Message{m})
		plain := EncodeMessage(m)
		if len(batch) != 4+4+len(plain) {
			t.Fatalf("trial %d: batch-of-one length %d, want %d", trial, len(batch), 8+len(plain))
		}
		if !bytes.Equal(batch[8:], plain) {
			t.Fatalf("trial %d: embedded message bytes differ from plain PUBLISH payload", trial)
		}
		got, err := DecodeBatch(batch)
		if err != nil || len(got) != 1 {
			t.Fatalf("trial %d: DecodeBatch: %v (%d msgs)", trial, err, len(got))
		}
		// The plain decoder must accept the embedded bytes unchanged.
		m2, err := DecodeMessage(batch[8:])
		if err != nil {
			t.Fatalf("trial %d: DecodeMessage of embedded bytes: %v", trial, err)
		}
		if !bytes.Equal(EncodeMessage(m2), plain) {
			t.Fatalf("trial %d: embedded message decoded differently", trial)
		}
	}
}

// TestDecodeBatchRejectsCorruption covers the decoder's guard rails:
// oversized counts, truncated length prefixes, short message bodies and
// trailing garbage must all fail with an error instead of over-reading.
func TestDecodeBatchRejectsCorruption(t *testing.T) {
	m := jms.NewMessage("t")
	good := EncodeBatch([]*jms.Message{m, m})
	cases := map[string][]byte{
		"empty payload":   {},
		"short count":     {0, 0, 1},
		"count too large": {0xff, 0xff, 0xff, 0xff},
		"truncated body":  good[:len(good)-3],
		"trailing bytes":  append(append([]byte{}, good...), 0xab),
	}
	for name, payload := range cases {
		if _, err := DecodeBatch(payload); err == nil {
			t.Errorf("%s: DecodeBatch accepted corrupt payload", name)
		}
	}
	// An inflated per-message length must fail, not swallow the next one.
	bad := append([]byte{}, good...)
	bad[7] += 4 // first message's length prefix (count u32, then len u32)
	if _, err := DecodeBatch(bad); err == nil {
		t.Error("inflated length prefix accepted")
	}
	if !errors.Is(mustErr(DecodeBatch([]byte{0, 0, 0, 9})), ErrTruncated) {
		t.Error("count exceeding payload should be ErrTruncated")
	}
}

func mustErr[T any](_ T, err error) error { return err }

// TestDecodeBatchEmpty allows the degenerate zero-message batch: the codec
// accepts it and returns no messages (the server acks it as a no-op).
func TestDecodeBatchEmpty(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("DecodeBatch(empty) = %v msgs, %v", len(got), err)
	}
}
