package wire

import (
	"testing"
	"unsafe"

	"repro/internal/jms"
)

func TestPubDedupRecord(t *testing.T) {
	var pd pubDedup
	if !pd.record("a", 1) {
		t.Fatal("first (a,1) classified duplicate")
	}
	if pd.record("a", 1) {
		t.Fatal("second (a,1) classified new")
	}
	if !pd.record("a", 2) {
		t.Fatal("(a,2) classified duplicate")
	}
	if !pd.record("b", 1) {
		t.Fatal("(b,1) classified duplicate: publishers must be independent")
	}
	// Out-of-order within the window is fine.
	if !pd.record("a", 100) || !pd.record("a", 50) {
		t.Fatal("out-of-order sequences within the window rejected")
	}
	// Sequences that fell out of the window are duplicates by definition.
	if !pd.record("a", pubDedupWindow+1000) {
		t.Fatal("advancing the window failed")
	}
	if pd.record("a", 3) {
		t.Fatal("ancient sequence classified new after the window advanced")
	}
}

func TestPubDedupUnrecord(t *testing.T) {
	var pd pubDedup
	if !pd.record("a", 1) {
		t.Fatal("first (a,1) classified duplicate")
	}
	// A failed publish releases its claim; the retry is new again.
	pd.unrecord("a", 1)
	if !pd.record("a", 1) {
		t.Fatal("(a,1) still classified duplicate after unrecord")
	}
	if pd.record("a", 1) {
		t.Fatal("re-recorded (a,1) classified new")
	}
	// Unrecording unknown pairs is a no-op, not a panic.
	pd.unrecord("a", 99)
	pd.unrecord("nobody", 1)
}

func TestPubIdentity(t *testing.T) {
	m := jms.NewMessage("t")
	if _, _, ok := pubIdentity(m); ok {
		t.Fatal("unstamped message has an identity")
	}
	if err := m.SetStringProperty(PubIDProperty, "pub-1"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pubIdentity(m); ok {
		t.Fatal("identity without sequence accepted")
	}
	if err := m.SetInt64Property(PubSeqProperty, 7); err != nil {
		t.Fatal(err)
	}
	pub, seq, ok := pubIdentity(m)
	if !ok || pub != "pub-1" || seq != 7 {
		t.Fatalf("pubIdentity = %q, %d, %v", pub, seq, ok)
	}
}

// TestPubDedupKeyOwnsItsBytes: the publisher identity a server records
// aliases the publish's arena bytes, which are reused once the message is
// delivered. The table keeps its own copy of a new identity, so the same
// publisher is still found after those bytes are overwritten.
func TestPubDedupKeyOwnsItsBytes(t *testing.T) {
	var pd pubDedup
	buf := []byte("publisher-7")
	if !pd.record(unsafe.String(&buf[0], len(buf)), 1) {
		t.Fatal("first (publisher-7,1) classified duplicate")
	}
	copy(buf, "overwritten")
	if pd.record("publisher-7", 1) {
		t.Error("(publisher-7,1) classified new after the bytes it was read from were reused")
	}
	if !pd.record("overwritten", 1) {
		t.Error("a publisher never seen was found in the table")
	}
}
