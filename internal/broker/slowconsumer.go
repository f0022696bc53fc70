package broker

import (
	"fmt"
	"strconv"
	"strings"
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

// kickSlow force-unsubscribes a slow subscriber under the disconnect
// policy. Outbox.put has marked the handle dead and slow under its outbox
// lock, queued its notice and released the lock; the handle is
// non-durable, since the transmit stage never puts to a durable consumer
// (its backlog refills it). Safe against a concurrent Unsubscribe:
// gone-closing and registry removal are both once-guarded.
func (b *Broker) kickSlow(h *Subscriber) {
	b.countAdd(&b.slowDisconnects, 1)
	h.once.Do(func() { close(h.gone) })
	h.removeOnce.Do(func() { _ = b.removeSubscriber(h) })
}
