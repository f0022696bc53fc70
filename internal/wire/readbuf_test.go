package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/jms"
)

// chunkReader yields at most chunk bytes per Read, forcing the FrameReader
// to refill mid-prologue and mid-payload.
type chunkReader struct {
	data  []byte
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data) {
		n = len(c.data)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// testFrameStream encodes a mixed stream: empty-payload control frames,
// small publishes, and one frame larger than maxPooledBuffer to force the
// window to grow.
func testFrameStream(t testing.TB) ([]Frame, []byte) {
	t.Helper()
	big := jms.NewMessage("t")
	big.SetBody(bytes.Repeat([]byte{0xcd}, maxPooledBuffer+512))
	small := jms.NewMessage("t")
	small.SetBody([]byte("hello"))
	frames := []Frame{
		{Type: FramePing},
		{Type: FramePublish, Payload: EncodeMessage(small)},
		{Type: FramePubAck, Payload: EncodeU64(1)},
		{Type: FramePublish, Payload: EncodeMessage(big)},
		{Type: FramePublish, Payload: EncodeMessage(small)},
		{Type: FramePing},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return frames, buf.Bytes()
}

// TestFrameReaderDifferential reads the same byte stream through ReadFrame
// and through a FrameReader at several refill granularities; the two must
// yield identical frame sequences, and the reader must end on clean io.EOF.
func TestFrameReaderDifferential(t *testing.T) {
	want, stream := testFrameStream(t)
	for _, chunk := range []int{1, 3, 7, 4096, len(stream)} {
		fr := NewFrameReader(&chunkReader{data: stream, chunk: chunk})
		ref := bytes.NewReader(stream)
		for i := range want {
			refFrame, err := ReadFrame(ref)
			if err != nil {
				t.Fatalf("chunk %d frame %d: ReadFrame: %v", chunk, i, err)
			}
			got, err := fr.Next()
			if err != nil {
				t.Fatalf("chunk %d frame %d: Next: %v", chunk, i, err)
			}
			if got.Type != refFrame.Type || !bytes.Equal(got.Payload, refFrame.Payload) {
				t.Fatalf("chunk %d frame %d: differs from ReadFrame", chunk, i)
			}
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("chunk %d: end of stream err = %v, want io.EOF", chunk, err)
		}
		reads, bytesRead := fr.Stats()
		if bytesRead != uint64(len(stream)) {
			t.Errorf("chunk %d: bytesRead = %d, want %d", chunk, bytesRead, len(stream))
		}
		if reads == 0 {
			t.Errorf("chunk %d: reads = 0", chunk)
		}
	}
}

// loopReader is an always-ready peer: it repeats one encoded frame forever
// and fills whatever buffer Read is offered.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		c := copy(p[n:], l.frame[l.off:])
		n += c
		l.off = (l.off + c) % len(l.frame)
	}
	return len(p), nil
}

// loopStream is an endless stream of PUBLISH frames of wire bytes each,
// prologue included; loopFrames reads it through a FrameReader.
func loopStream(wire int) io.Reader {
	frame := binary.BigEndian.AppendUint32(nil, uint32(wire-prologueSize))
	frame = append(frame, byte(FramePublish))
	frame = append(frame, make([]byte, wire-prologueSize)...)
	return &loopReader{frame: frame}
}

func loopFrames(wire int) *FrameReader { return NewFrameReader(loopStream(wire)) }

func mustNext(t testing.TB, fr *FrameReader, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameReaderWindowFollowsFrameSize pins the receive-window policy in
// counts over an always-ready peer: frames of a 4 KiB message are read
// several to a Read call, a stationary stream of batch-sized frames never
// reallocates the window, and small frames keep a small window.
func TestFrameReaderWindowFollowsFrameSize(t *testing.T) {
	t.Run("4.2 KB frames share Read calls", func(t *testing.T) {
		fr := loopFrames(4200)
		const n = 2000
		mustNext(t, fr, n)
		if reads, _ := fr.Stats(); float64(reads)/n > 0.15 {
			t.Errorf("%d Read calls for %d frames (%.2f per frame), want <= 0.15", reads, n, float64(reads)/n)
		}
		if len(fr.buf) > maxWindow {
			t.Errorf("window %d bytes, want <= %d", len(fr.buf), maxWindow)
		}
	})
	t.Run("67 KB frames never reallocate", func(t *testing.T) {
		fr := loopFrames(67 << 10)
		mustNext(t, fr, 8) // growth: 4 KiB -> 128 KiB -> 256 KiB
		if allocs := testing.AllocsPerRun(4*shrinkRun, func() { mustNext(t, fr, 1) }); allocs != 0 {
			t.Errorf("%.2f allocations per frame in steady state, want 0", allocs)
		}
	})
	t.Run("frames up to 2 KiB keep the window at 16 KiB", func(t *testing.T) {
		for _, wire := range []int{prologueSize, 100, 513, 2 << 10} {
			fr := loopFrames(wire)
			mustNext(t, fr, 4*shrinkRun)
			if len(fr.buf) > 16<<10 {
				t.Errorf("%d-byte frames: window %d bytes, want <= 16 KiB", wire, len(fr.buf))
			}
		}
	})
	t.Run("a mix keeps the window of its largest frame", func(t *testing.T) {
		// One batch-sized frame among shrinkRun-1 acks: the run never completes.
		var stream bytes.Buffer
		for i := 0; i < 4*shrinkRun; i++ {
			f := Frame{Type: FramePubAck, Payload: EncodeU64(uint64(i))}
			if i%shrinkRun == 0 {
				f = Frame{Type: FrameBatch, Payload: make([]byte, 67<<10)}
			}
			if err := WriteFrame(&stream, f); err != nil {
				t.Fatal(err)
			}
		}
		fr := NewFrameReader(&stream)
		mustNext(t, fr, 2*shrinkRun) // two big frames: 4 KiB -> 128 KiB -> 256 KiB
		grown := len(fr.buf)
		mustNext(t, fr, 2*shrinkRun)
		if len(fr.buf) != grown {
			t.Errorf("window went %d -> %d bytes over a stationary mix", grown, len(fr.buf))
		}
	})
}

// TestFrameReaderReleasesBigWindow: one 8 MiB frame must not pin its window
// for the connection's lifetime. After shrinkRun frames that do not need it
// the window is back under maxWindow, and once what the peer had already
// sent is consumed it is back at the size small frames get.
func TestFrameReaderReleasesBigWindow(t *testing.T) {
	var big bytes.Buffer
	if err := WriteFrame(&big, Frame{Type: FramePublish, Payload: make([]byte, 8<<20)}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(io.MultiReader(&big, loopStream(100)))
	mustNext(t, fr, 1)
	if len(fr.buf) < 8<<20 {
		t.Fatalf("window %d bytes after an 8 MiB frame", len(fr.buf))
	}
	mustNext(t, fr, shrinkRun-1)
	if len(fr.buf) < 8<<20 {
		t.Errorf("window released after %d frames, before the run of %d was complete", shrinkRun-1, shrinkRun)
	}
	mustNext(t, fr, 1)
	if len(fr.buf) > maxWindow {
		t.Errorf("window still %d bytes %d frames after the big one, want <= %d", len(fr.buf), shrinkRun, maxWindow)
	}
	mustNext(t, fr, maxWindow/100+8*shrinkRun)
	if len(fr.buf) != minWindow {
		t.Errorf("window settled at %d bytes, want %d", len(fr.buf), minWindow)
	}
}

// TestFrameReaderCoalescesReads: over a buffered source, many small frames
// should cost far fewer Read calls than frames — the syscall-batching the
// sliding window exists for.
func TestFrameReaderCoalescesReads(t *testing.T) {
	var buf bytes.Buffer
	const n = 100
	for i := 0; i < n; i++ {
		if err := WriteFrame(&buf, Frame{Type: FramePubAck, Payload: EncodeU64(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	for i := 0; i < n; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if reads, _ := fr.Stats(); reads >= n {
		t.Errorf("reads = %d for %d frames; window is not coalescing", reads, n)
	}
}

// TestFrameReaderErrors pins the error classes to ReadFrame's: clean close
// at a frame boundary is io.EOF, close mid-frame is io.ErrUnexpectedEOF,
// an oversized length prefix is ErrFrameTooLarge.
func TestFrameReaderErrors(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, Frame{Type: FramePublish, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	frame := full.Bytes()
	oversize := []byte{0xff, 0xff, 0xff, 0xff, byte(FramePublish)}

	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"empty stream", nil, io.EOF},
		{"partial prologue", frame[:3], io.ErrUnexpectedEOF},
		{"prologue only", frame[:5], io.ErrUnexpectedEOF},
		{"partial payload", frame[:8], io.ErrUnexpectedEOF},
		{"oversized length", oversize, ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewFrameReader(bytes.NewReader(tc.stream))
			_, err := fr.Next()
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			// ReadFrame must reject the same stream within the framing
			// layer's declared error classes (it reports a zero-byte payload
			// read as io.EOF where the FrameReader says io.ErrUnexpectedEOF).
			_, refErr := ReadFrame(bytes.NewReader(tc.stream))
			if !errors.Is(refErr, io.EOF) && !errors.Is(refErr, io.ErrUnexpectedEOF) &&
				!errors.Is(refErr, ErrFrameTooLarge) {
				t.Errorf("ReadFrame err = %v, not a framing error class", refErr)
			}
		})
	}
}

// countingWriter counts Write calls, standing in for a socket where each
// call is one syscall.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteFrameSingleWrite: a frame whose payload fits the pooled-buffer
// bound must reach the connection in exactly one Write call — prologue and
// payload coalesced — and an empty-payload frame likewise. Only frames too
// large to stage in a pooled buffer may split (into a vectored pair).
func TestWriteFrameSingleWrite(t *testing.T) {
	cases := []struct {
		name      string
		frame     Frame
		maxWrites int
	}{
		{"empty payload", Frame{Type: FramePing}, 1},
		{"small payload", Frame{Type: FramePublish, Payload: []byte("hello")}, 1},
		{"pooled bound", Frame{Type: FramePublish, Payload: make([]byte, maxPooledBuffer)}, 1},
		{"oversized", Frame{Type: FramePublish, Payload: make([]byte, maxPooledBuffer+1)}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w countingWriter
			if err := WriteFrame(&w, tc.frame); err != nil {
				t.Fatal(err)
			}
			if w.writes > tc.maxWrites {
				t.Errorf("WriteFrame made %d Write calls, want <= %d", w.writes, tc.maxWrites)
			}
			back, err := ReadFrame(bytes.NewReader(w.buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if back.Type != tc.frame.Type || !bytes.Equal(back.Payload, tc.frame.Payload) {
				t.Error("frame did not round-trip through WriteFrame")
			}
		})
	}
}
