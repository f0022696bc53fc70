// Package faultnet wraps net.Conn and net.Listener with seeded,
// schedulable faults: added latency, bandwidth caps, byte corruption,
// mid-frame connection resets, and accept-time partitions. It is the
// chaos harness the reliability layer (client.Reliable) is tested
// against: the paper's M/G/1-∞ analysis assumes a transport
// that never drops or stalls, and faultnet is how we deviate from that
// assumption on purpose, deterministically.
//
// All randomness flows from one seeded RNG shared by every connection of
// a Network, so a chaos run is reproducible from its Config.Seed.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset is returned from Read/Write on a connection that
// faultnet reset (budget exhausted, reset probability fired, or KillAll).
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Config describes the fault schedule of a Network. The zero value
// injects nothing and adds no delay — a transparent wrapper.
type Config struct {
	// Seed initialises the shared RNG; same seed, same fault schedule.
	Seed int64
	// Latency is added to every Write before bytes reach the inner
	// connection (a one-way propagation delay on the wrapped endpoint).
	Latency time.Duration
	// LatencyJitter adds a uniform random extra delay in [0, Jitter).
	LatencyJitter time.Duration
	// BandwidthBps caps the write throughput in bytes per second by
	// stalling after each write for the time the bytes "occupy the
	// link". 0 means unlimited.
	BandwidthBps int64
	// CorruptProb is the per-Write probability that one random byte of
	// the outgoing buffer is flipped (in a copy; the caller's buffer is
	// never modified).
	CorruptProb float64
	// ResetProb is the per-Write probability that the connection is
	// reset before the write happens.
	ResetProb float64
	// ResetAfterBytes resets each connection after it has written this
	// many bytes, cutting the final frame mid-write. 0 disables.
	ResetAfterBytes int64
}

// Stats counts the faults a Network has injected so far.
type Stats struct {
	// Accepted is the number of connections the wrapped listener
	// admitted (partition-refused ones excluded).
	Accepted uint64
	// Refused counts connections accepted by the inner listener but
	// immediately closed because the network was partitioned.
	Refused uint64
	// Resets counts injected resets (probability, byte budget, KillAll).
	Resets uint64
	// CorruptedWrites counts writes that had a byte flipped.
	CorruptedWrites uint64
}

// Network is a fault domain: a shared RNG, a partition switch, and the
// set of live wrapped connections (so KillAll can cut them all).
type Network struct {
	cfg Config

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned bool
	conns       map[*Conn]struct{}
	stats       Stats
}

// New creates a Network with the given fault schedule.
func New(cfg Config) *Network {
	return &Network{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		conns: make(map[*Conn]struct{}),
	}
}

// Wrap returns a listener whose accepted connections carry the
// Network's faults. While the network is partitioned, accepted
// connections are closed immediately — the accept-time partition.
func (n *Network) Wrap(ln net.Listener) net.Listener {
	return &Listener{Listener: ln, n: n}
}

// WrapConn wraps a single, already-established connection (the
// client-side counterpart to Wrap).
func (n *Network) WrapConn(c net.Conn) *Conn {
	fc := &Conn{Conn: c, n: n, budget: n.cfg.ResetAfterBytes}
	n.mu.Lock()
	n.conns[fc] = struct{}{}
	n.mu.Unlock()
	return fc
}

// Partition opens (true) or heals (false) the accept-time partition.
func (n *Network) Partition(on bool) {
	n.mu.Lock()
	n.partitioned = on
	n.mu.Unlock()
}

// Partitioned reports whether the accept-time partition is open.
func (n *Network) Partitioned() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitioned
}

// KillAll resets every live wrapped connection and returns how many it
// cut. New connections are unaffected (heal by redialling).
func (n *Network) KillAll() int {
	n.mu.Lock()
	live := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		live = append(live, c)
	}
	n.mu.Unlock()
	for _, c := range live {
		c.reset()
	}
	return len(live)
}

// NumConns reports the number of live wrapped connections.
func (n *Network) NumConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// Stats returns a snapshot of the injected-fault counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

func (n *Network) forget(c *Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// roll draws a uniform [0,1) variate from the shared RNG.
func (n *Network) roll() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64()
}

// jitter draws the per-write added latency.
func (n *Network) jitter() time.Duration {
	d := n.cfg.Latency
	if n.cfg.LatencyJitter > 0 {
		n.mu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.cfg.LatencyJitter)))
		n.mu.Unlock()
	}
	return d
}

// Listener wraps an inner listener; see Network.Wrap.
type Listener struct {
	net.Listener
	n *Network
}

// Accept waits for the next connection. Connections arriving during a
// partition are closed immediately and the wait continues, so the
// dialler observes a connection that dies at once, like a SYN admitted
// by a dying peer.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.n.mu.Lock()
		if l.n.partitioned {
			l.n.stats.Refused++
			l.n.mu.Unlock()
			_ = c.Close()
			continue
		}
		l.n.stats.Accepted++
		l.n.mu.Unlock()
		return l.n.WrapConn(c), nil
	}
}

// Conn is a net.Conn carrying a Network's faults on its write path.
type Conn struct {
	net.Conn
	n *Network

	// budget is the remaining write bytes before an injected reset;
	// 0 or negative at construction means unlimited.
	budget int64

	once   sync.Once
	killed bool // guarded by n.mu
}

// reset closes the inner connection and marks the cut as injected, so
// subsequent Read/Write report ErrInjectedReset instead of the inner
// error.
func (c *Conn) reset() {
	c.n.mu.Lock()
	c.killed = true
	c.n.stats.Resets++
	c.n.mu.Unlock()
	c.close()
}

func (c *Conn) close() {
	c.once.Do(func() {
		c.n.forget(c)
		_ = c.Conn.Close()
	})
}

// Close closes the connection (a clean close, not an injected fault).
func (c *Conn) Close() error {
	c.close()
	return nil
}

func (c *Conn) wasKilled() bool {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	return c.killed
}

// Read reads from the inner connection; after an injected reset it
// reports ErrInjectedReset so callers can classify the failure.
func (c *Conn) Read(p []byte) (int, error) {
	nn, err := c.Conn.Read(p)
	if err != nil && c.wasKilled() {
		err = ErrInjectedReset
	}
	return nn, err
}

// Write applies the fault schedule: latency, probabilistic reset, byte
// budget (mid-frame cut), corruption, then the bandwidth stall.
func (c *Conn) Write(p []byte) (int, error) {
	cfg := &c.n.cfg
	if d := c.n.jitter(); d > 0 {
		time.Sleep(d)
	}
	if c.wasKilled() {
		return 0, ErrInjectedReset
	}
	if cfg.ResetProb > 0 && c.n.roll() < cfg.ResetProb {
		c.reset()
		return 0, ErrInjectedReset
	}
	// Byte budget: write the prefix that fits, then cut — a mid-frame
	// reset from the reader's point of view.
	if c.budget > 0 {
		if int64(len(p)) >= c.budget {
			prefix := p[:int(c.budget)-1]
			if len(prefix) > 0 {
				_, _ = c.Conn.Write(prefix)
			}
			c.reset()
			return len(prefix), ErrInjectedReset
		}
		c.budget -= int64(len(p))
	}
	buf := p
	if cfg.CorruptProb > 0 && len(p) > 0 && c.n.roll() < cfg.CorruptProb {
		buf = make([]byte, len(p))
		copy(buf, p)
		c.n.mu.Lock()
		buf[c.n.rng.Intn(len(buf))] ^= 0xFF
		c.n.stats.CorruptedWrites++
		c.n.mu.Unlock()
	}
	nn, err := c.Conn.Write(buf)
	if err != nil && c.wasKilled() {
		err = ErrInjectedReset
	}
	if cfg.BandwidthBps > 0 && nn > 0 {
		time.Sleep(time.Duration(int64(nn) * int64(time.Second) / cfg.BandwidthBps))
	}
	return nn, err
}
