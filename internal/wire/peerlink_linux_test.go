package wire

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/jms"
)

// blackHoleAddr returns a loopback address whose connects hang: a listening
// socket with a backlog of zero that nobody accepts from, its accept queue
// filled, so the kernel drops every further SYN.
func blackHoleAddr(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; i < 16; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr
		}
		t.Cleanup(func() { _ = c.Close() })
	}
	t.Skip("accept queue never filled: no black-hole address on this host")
	return ""
}

// TestPeerLinkCloseDuringDial pins the dial-outside-the-lock contract: with
// a dial hanging on a black-hole address, a second forward joins the same
// attempt, Close returns promptly, and both forwards fail promptly instead
// of sitting out the dial timeout.
func TestPeerLinkCloseDuringDial(t *testing.T) {
	l := NewPeerLink(blackHoleAddr(t), 0, 30*time.Second, time.Second)
	inner := EncodeMessage(jms.NewMessage("t"))
	acks := []*ForwardAck{NewForwardAck(1), NewForwardAck(1)}
	for _, ack := range acks {
		go l.Forward(ack, false, inner)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		dialing := l.dial != nil
		l.mu.Unlock()
		if dialing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dial never started")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	l.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %s with a dial pending", took)
	}
	for _, ack := range acks {
		if err := waitAck(t, ack, 2*time.Second); err == nil {
			t.Fatal("forward on a closed link succeeded")
		}
	}
	if st := l.Stats(); st.Failed != 2 || st.Inflight != 0 || st.Acked != 0 {
		t.Fatalf("stats = %+v, want 2 failed, none in flight", st)
	}
}
