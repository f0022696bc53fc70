package broker

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jms"
)

// ErrSlowConsumer is returned by Receive after the broker force-removed
// the subscription under the disconnect slow-consumer policy. It wraps
// ErrClosed, so existing errors.Is(err, ErrClosed) checks keep working.
var ErrSlowConsumer = fmt.Errorf("%w: slow consumer disconnected", ErrClosed)

// SlowConsumerPolicy selects what a persistent-mode transmit does when a
// subscriber's delivery queue is full. The paper's FioranoMQ setup blocks
// (push-back propagates from the slow subscriber all the way to the
// publishers — the regime the M/GI/1 model describes); real fleets usually
// prefer isolating the slow consumer instead.
type SlowConsumerPolicy int

const (
	// SlowConsumerBlock is the default and the paper-faithful behavior:
	// the transmit stage blocks until the subscriber drains, propagating
	// push-back to publishers.
	SlowConsumerBlock SlowConsumerPolicy = iota
	// SlowConsumerDropOldest evicts the oldest queued delivery to make
	// room for the newest, keeping the subscriber attached with a bounded
	// lag. Evictions are counted in Stats.SlowDropped.
	SlowConsumerDropOldest
	// SlowConsumerDisconnect force-unsubscribes the slow subscriber: its
	// handle reports ErrSlowConsumer, wire connections send a subscription
	//-closed notice, and the count lands in Stats.SlowDisconnects. The
	// message triggering the disconnect is not delivered to that
	// subscriber.
	SlowConsumerDisconnect
)

// slowConsumerNames maps flag names to policies, in declaration order.
var slowConsumerNames = []struct {
	name   string
	policy SlowConsumerPolicy
}{
	{"block", SlowConsumerBlock},
	{"drop-oldest", SlowConsumerDropOldest},
	{"disconnect", SlowConsumerDisconnect},
}

// SlowConsumerPolicyNames returns the valid policy flag names.
func SlowConsumerPolicyNames() []string {
	names := make([]string, len(slowConsumerNames))
	for i, p := range slowConsumerNames {
		names[i] = p.name
	}
	return names
}

// String returns the policy's flag name.
func (p SlowConsumerPolicy) String() string {
	for _, pn := range slowConsumerNames {
		if pn.policy == p {
			return pn.name
		}
	}
	return "SlowConsumerPolicy(" + strconv.Itoa(int(p)) + ")"
}

// ParseSlowConsumerPolicy parses a -slow-consumer flag value.
func ParseSlowConsumerPolicy(s string) (SlowConsumerPolicy, error) {
	for _, pn := range slowConsumerNames {
		if pn.name == s {
			return pn.policy, nil
		}
	}
	return 0, fmt.Errorf("broker: unknown slow-consumer policy %q (valid policies: %s)",
		s, strings.Join(SlowConsumerPolicyNames(), ", "))
}

// sendDropOldest delivers m to a full subscriber queue by evicting the
// oldest queued delivery. The caller holds h.sendMu and has verified the
// handle is alive. The loop terminates because only the transmit stage
// (serialized by sendMu) sends on the channel: each iteration either
// enqueues m or frees a slot; a concurrent Receive can only help.
func (b *Broker) sendDropOldest(h *Subscriber, m *jms.Message) {
	for {
		select {
		case h.ch <- m:
			h.delivered.Add(1)
			b.countAdd(&b.dispatched, 1)
			return
		default:
		}
		select {
		case <-h.ch:
			b.countAdd(&b.slowDropped, 1)
		default:
			// The consumer drained between the two selects; retry the send.
		}
	}
}

// kickSlow force-unsubscribes a slow subscriber under the disconnect
// policy. The caller has marked the handle dead under the lock that guards
// it (h.sendMu, held across this call, or its outbox's) and verified it is
// non-durable (the transmit stage only ever sees non-durable handles —
// durable consumers are fed by their pump, not by the dispatch pipeline).
// Safe against a concurrent Unsubscribe: gone-closing and registry removal
// are both once-guarded, and the lock order (sendMu, then broker/registry
// locks) matches the unsubscribe path.
func (b *Broker) kickSlow(h *Subscriber) {
	h.slow.Store(true)
	b.countAdd(&b.slowDisconnects, 1)
	h.once.Do(func() { close(h.gone) })
	h.removeOnce.Do(func() { _ = b.removeSubscriber(h) })
}
