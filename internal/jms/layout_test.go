package jms

import (
	"testing"
	"unsafe"
)

// TestMessageLayout pins the sizes every replica, fan-out view slab and
// wire arena chunk is made of: a Message is two cache lines, 128 bytes, and
// a property entry 56. A field that grows either one shows up here first.
func TestMessageLayout(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 128 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 128", got)
	}
	if got := unsafe.Sizeof(PropertyEntry{}); got != 56 {
		t.Errorf("unsafe.Sizeof(PropertyEntry{}) = %d, want 56", got)
	}
}
