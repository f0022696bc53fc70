//go:build unix

package jmsperf_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
	"repro/internal/wire"
)

// BenchmarkRegressionIngressBody is the server's PUBLISH path against body
// size, the payload sweep: per op the connection's read loop decodes one
// PUBLISH frame into its arena, the fast engine matches it to the
// connection's one subscription, and the connection's writer encodes it
// and writes it to a conn that discards. The connection's peer is
// the benchmark itself (ingressConn), so no client and no socket is
// measured: allocs/op and B/op are the server's own per message, and
// cpu-ns/op the process's user + system CPU time per message.
func BenchmarkRegressionIngressBody(b *testing.B) {
	for _, size := range []int{16, 1 << 10, 2<<10 + 1, 4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		b.Run(strconv.Itoa(size)+"B", func(b *testing.B) {
			br := broker.New(broker.Options{Engine: broker.EngineFast})
			if err := br.ConfigureTopic("t"); err != nil {
				b.Fatal(err)
			}
			m := jms.NewMessage("t")
			m.SetBody(make([]byte, size))
			sub := frameBytes(b, wire.FrameSubscribe, wire.EncodeSubscribe("t", wire.FilterSpec{Mode: wire.FilterNone}))
			conn := &ingressConn{
				rest: sub, frame: frameBytes(b, wire.FramePublish, wire.EncodeMessage(m)), left: b.N,
				start: make(chan struct{}), closed: make(chan struct{}),
			}
			conn.more.L = &conn.mu
			srv := wire.Serve(br, &ingressListener{conn: conn, closed: make(chan struct{})})
			b.Cleanup(func() {
				_ = srv.Close()
				_ = br.Close()
			})
			// SUBSCRIBE_OK, then a PUB_ACK and a delivery per publish.
			const prologue = 5
			subOK := prologue + 16
			perMsg := prologue + 8 + prologue + len(wire.EncodeDelivery(1, 1, m))
			conn.waitFor(subOK)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			cpu := processCPU()
			close(conn.start)
			conn.waitFor(subOK + b.N*perMsg)
			b.ReportMetric(float64(processCPU()-cpu)/float64(b.N), "cpu-ns/op")
		})
	}
}

// processCPU is the process's user + system CPU time so far, in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// frameBytes is one encoded frame of type typ whose payload is a request
// ID before inner.
func frameBytes(b *testing.B, typ wire.FrameType, inner []byte) []byte {
	var buf bytes.Buffer
	payload := append(binary.BigEndian.AppendUint64(nil, 1), inner...)
	if err := wire.WriteFrame(&buf, wire.Frame{Type: typ, Payload: payload}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// ingressConn is the server's end of a connection whose peer is a
// benchmark: reads serve one frame (rest), then, once start is closed, left
// copies of frame, packed as many to a read as fit, then wait for Close.
// Writes are counted and discarded.
type ingressConn struct {
	rest, frame []byte
	left        int
	start       chan struct{}
	closed      chan struct{}
	once        sync.Once

	mu      sync.Mutex
	more    sync.Cond
	written int
}

func (c *ingressConn) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(c.rest) == 0 {
			if c.left == 0 {
				break
			}
			if c.start != nil {
				if n > 0 {
					break
				}
				<-c.start
				c.start = nil
			}
			c.left--
			c.rest = c.frame
		}
		k := copy(p[n:], c.rest)
		c.rest, n = c.rest[k:], n+k
	}
	if n == 0 {
		<-c.closed
		return 0, io.EOF
	}
	return n, nil
}

func (c *ingressConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.written += len(p)
	c.more.Broadcast()
	c.mu.Unlock()
	return len(p), nil
}

// waitFor blocks until total bytes have been written.
func (c *ingressConn) waitFor(total int) {
	c.mu.Lock()
	for c.written < total {
		c.more.Wait()
	}
	c.mu.Unlock()
}

func (c *ingressConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *ingressConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *ingressConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *ingressConn) SetDeadline(time.Time) error      { return nil }
func (c *ingressConn) SetReadDeadline(time.Time) error  { return nil }
func (c *ingressConn) SetWriteDeadline(time.Time) error { return nil }

// ingressListener accepts conn once, then waits to be closed.
type ingressListener struct {
	conn   *ingressConn
	closed chan struct{}
	once   sync.Once
}

func (l *ingressListener) Accept() (net.Conn, error) {
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *ingressListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *ingressListener) Addr() net.Addr { return &net.TCPAddr{} }
