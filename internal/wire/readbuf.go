package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The receive window follows the frame sizes it sees. Its target size is a
// power of two between minWindow and maxWindow: windowFrames times the
// frame's wire size, so that one Read can return several frames of the
// recent size, or the frame itself when that is larger than maxWindow.
//
//   - It grows toward the target when a frame makes the reader hit the
//     socket (the moment a larger window would have paid, and the moment the
//     bytes to carry over are less than one frame): by doubling, or straight
//     to the power of two that holds a frame too large for a doubling, and
//     never past the target.
//   - It compacts only when the free tail cannot hold the frame being read
//     (or when less than a prologue is buffered, which costs nothing to move).
//   - It is released after shrinkRun consecutive frames whose target is
//     below the current size — down to that run's largest target, or to what
//     is still buffered if that is more. A stationary frame mix therefore
//     never reallocates, and a connection of small frames keeps a small
//     window: 4 KiB for frames up to 512 B, at most 16 KiB up to 2 KiB.
const (
	minWindow    = 4 << 10
	maxWindow    = 256 << 10
	windowFrames = 8
	shrinkRun    = 256
)

// prologueSize is the fixed frame prologue: payload length u32, type u8.
const prologueSize = 5

// windowFor is the target window for frames of wire bytes each.
func windowFor(wire int) int {
	if wire >= maxWindow {
		return wire
	}
	w := minWindow
	for w < wire*windowFrames && w < maxWindow {
		w <<= 1
	}
	return w
}

// FrameReader reads frames from a connection through a sliding receive
// window, so the steady state costs zero allocations per frame, and a Read
// call returns several frames whenever the peer has that many in flight.
//
// Ownership contract: the Payload of a returned Frame is a view into the
// reader's internal buffer and is valid only until the next call to Next.
// Callers that need the bytes longer must copy them (or, on the server
// ingress path, materialize them through a MessageArena).
type FrameReader struct {
	r          io.Reader
	buf        []byte
	start, end int

	// idle counts the consecutive frames that did not need the window at
	// its current size; idlePeak is the largest of them on the wire.
	idle, idlePeak int

	// reads and bytesRead count Read calls and bytes consumed from the
	// underlying connection — the observable t_rcv syscall cost that the
	// telemetry plane exports and internal/fit consumes.
	reads     uint64
	bytesRead uint64
}

// NewFrameReader returns a FrameReader buffering reads from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, minWindow)}
}

// Stats reports the cumulative Read-call and byte counts.
func (fr *FrameReader) Stats() (reads, bytesRead uint64) {
	return fr.reads, fr.bytesRead
}

func (fr *FrameReader) buffered() int { return fr.end - fr.start }

// resize moves the buffered bytes to the front of a new window of size n.
func (fr *FrameReader) resize(n int) {
	nb := make([]byte, n)
	fr.end = copy(nb, fr.buf[fr.start:fr.end])
	fr.buf, fr.start = nb, 0
}

// fill makes at least n contiguous bytes available at fr.start, compacting
// or growing the window as needed. It reports io.EOF only on a clean close
// with nothing buffered; a close mid-bytes is io.ErrUnexpectedEOF, matching
// io.ReadFull semantics so FrameReader errors are interchangeable with
// ReadFrame's.
func (fr *FrameReader) fill(n int) error {
	if fr.buffered() >= n {
		return nil
	}
	if want := windowFor(n); len(fr.buf) < want {
		grown := 2 * len(fr.buf)
		for grown < n {
			grown <<= 1
		}
		if grown > want {
			grown = want
		}
		fr.resize(grown)
	} else if fr.start+n > len(fr.buf) || fr.buffered() < prologueSize {
		fr.end = copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.start = 0
	}
	var stalls int
	for fr.buffered() < n {
		// A window left oversized by one huge frame is not offered whole:
		// what a Read returns past the current frame has to be carried by
		// whatever window replaces it.
		free := fr.buf[fr.end:]
		if ahead := fr.start + max(n, maxWindow) - fr.end; len(free) > ahead {
			free = free[:ahead]
		}
		m, err := fr.r.Read(free)
		fr.end += m
		fr.bytesRead += uint64(m)
		fr.reads++
		if err != nil {
			if err == io.EOF && fr.buffered() > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		if m == 0 {
			if stalls++; stalls >= 100 {
				return io.ErrNoProgress
			}
		} else {
			stalls = 0
		}
	}
	return nil
}

// release counts a frame of wire bytes toward the run that lets an oversized
// window go, and shrinks the window when the run is complete.
func (fr *FrameReader) release(wire int) {
	if windowFor(wire) >= len(fr.buf) {
		fr.idle, fr.idlePeak = 0, 0
		return
	}
	fr.idlePeak = max(fr.idlePeak, wire)
	if fr.idle++; fr.idle < shrinkRun {
		return
	}
	keep := windowFor(fr.idlePeak)
	for keep < fr.buffered() {
		keep <<= 1
	}
	if keep < len(fr.buf) {
		fr.resize(keep)
	}
	fr.idle, fr.idlePeak = 0, 0
}

// Next returns the next frame. The returned Payload is valid only until the
// following Next call; see the FrameReader ownership contract.
func (fr *FrameReader) Next() (Frame, error) {
	if err := fr.fill(prologueSize); err != nil {
		return Frame{}, err
	}
	hdr := fr.buf[fr.start : fr.start+prologueSize]
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	f := Frame{Type: FrameType(hdr[4])}
	wire := prologueSize + int(size)
	fr.release(wire)
	if size == 0 {
		fr.start += prologueSize
		return f, nil
	}
	// The whole frame, prologue included, is what has to fit: a window sized
	// to one huge frame then holds the next one of that size without moving it.
	// The prologue is still buffered, so a close here is never a clean EOF.
	if err := fr.fill(wire); err != nil {
		return Frame{}, fmt.Errorf("wire: read payload: %w", err)
	}
	f.Payload = fr.buf[fr.start+prologueSize : fr.start+wire : fr.start+wire]
	fr.start += wire
	return f, nil
}
