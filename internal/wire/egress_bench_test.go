//go:build unix

package wire

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"syscall"
	"testing"
)

// processCPU is the process's user + system CPU time so far, in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// BenchmarkDeliveryEgress is the delivery egress path over loopback TCP —
// the delivery append path, the connection writer, the kernel and a peer that
// only reads — per body size, with the process's CPU time per delivery beside the
// wall time: the two constants of t_tx (per copy, per byte) are the intercept
// and slope of that column. EXPERIMENTS.md X14 tables it, and the sweep that
// set bodyByRefMin is this benchmark with the constant forced to 0 and to
// MaxFrameSize.
func BenchmarkDeliveryEgress(b *testing.B) {
	for _, size := range []int{0, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("body=%d", size), func(b *testing.B) {
			m := deliveryMessage(rand.New(rand.NewSource(1)), size, 0)
			wireBytes := int64(b.N) * int64(prologueSize+len(EncodeDelivery(0, 0, m)))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			received := make(chan error, 1)
			go func() {
				peer, err := ln.Accept()
				if err != nil {
					received <- err
					return
				}
				defer peer.Close()
				_, err = io.CopyN(io.Discard, peer, wireBytes)
				received <- err
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			sc := &serverConn{server: &Server{}, conn: conn, w: newConnWriter(conn, &wireCounters{}, nil)}
			defer sc.w.close()
			b.SetBytes(int64(size))
			cpu0 := processCPU()
			b.ResetTimer()
			refs := []DeliveryRef{{}}
			for i := 0; i < b.N; i++ {
				refs[0].SubID = uint64(i & 31)
				if err := deliver(sc, refs, m); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-received; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(processCPU()-cpu0)/float64(b.N), "cpu-ns/op")
		})
	}
}
