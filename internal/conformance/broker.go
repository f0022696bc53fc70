package conformance

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/wire"
)

// BrokerConfig parameterizes the live-broker leg: the real broker behind
// a fault-injecting transport, loaded at a target utilization by a
// reliable client publishing on a Poisson schedule.
type BrokerConfig struct {
	// Rho is the target utilization of the broker's dispatch stage. The
	// whole benchmark shares one machine (publisher, transport, broker),
	// so the default keeps the total CPU demand clearly stable even on a
	// single-core runner. Default 0.3.
	Rho float64
	// NFltr is the number of installed non-matching filters; it scales
	// E[B] = D + n_fltr·t_fltr up so queueing delays dominate scheduler
	// and timer noise, and must be large enough that lambda = Rho/E[B]
	// stays below the publish-path throughput. Default 30000.
	NFltr int
	// Messages is the number of published messages. Default 3000.
	Messages int
	// Warmup initial tape entries are discarded. Default Messages/10.
	Warmup int
	// Seed fixes the Poisson schedule and the fault schedule.
	Seed int64
	// Quantile is the compared tail quantile. Default 0.99.
	Quantile float64
	// Faults configures the transport; Seed defaults to Seed.
	Faults faultnet.Config
}

func (c BrokerConfig) withDefaults() BrokerConfig {
	if c.Rho <= 0 {
		c.Rho = 0.3
	}
	if c.NFltr <= 0 {
		c.NFltr = 30000
	}
	if c.Messages <= 0 {
		c.Messages = 3000
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Messages / 10
	}
	if c.Quantile <= 0 {
		c.Quantile = 0.99
	}
	if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed
	}
	return c
}

// BrokerResult reports the live leg's loaded phase, judged by its own
// tape, plus the fault and reliability counters proving the transport
// actually hurt.
type BrokerResult struct {
	// TapeReport analyses the loaded phase's tape past its Warmup entries.
	TapeReport
	// ProbeService is the closed-loop probe's E[B], which set the load:
	// lambda = Rho/ProbeService.
	ProbeService float64
	// Resets counts transport-injected connection kills.
	Resets uint64
	// Reconnects, PublishRetries and Duplicates count the reliability
	// layer's responses: redials, republished messages, and server-side
	// suppressed duplicates.
	Reconnects, PublishRetries, Duplicates uint64
}

// probeMessages is the length of the closed-loop probe that paces a leg.
const probeMessages = 100

// RunBroker loads the live broker over a faulty transport and analyses
// the tape it was served on. A short closed-loop probe of the same broker
// measures E[B] first; the broker is then loaded at lambda = Rho/E[B] by
// a reliable client whose publishes survive the injected faults. Waits
// are recorded broker-side (arrival to dispatch), so the transport shapes
// only the arrival process.
func RunBroker(cfg BrokerConfig) (BrokerResult, error) {
	cfg = cfg.withDefaults()

	b := broker.New(broker.Options{
		InFlight:         256,
		SubscriberBuffer: 512,
		WaitTiming:       true,
	})
	defer func() { _ = b.Close() }()
	const topicName = "conformance"
	if err := b.ConfigureTopic(topicName); err != nil {
		return BrokerResult{}, err
	}
	// The non-matching population never receives anything, so the
	// subscriptions need no drain goroutines.
	for i := 0; i < cfg.NFltr; i++ {
		f, err := filter.NewCorrelationID(fmt.Sprintf("#%d", i+1))
		if err != nil {
			return BrokerResult{}, err
		}
		if _, err := b.Subscribe(topicName, f); err != nil {
			return BrokerResult{}, err
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return BrokerResult{}, err
	}
	fn := faultnet.New(cfg.Faults)
	srv := wire.Serve(b, fn.Wrap(ln))
	defer func() { _ = srv.Close() }()

	// Reliable publisher and subscriber sharing one metrics registry.
	reg := metrics.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	opts := client.ReliableOptions{
		Metrics: reg,
		Backoff: client.Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond},
		Seed:    cfg.Seed + 1,
	}
	pub, err := client.DialReliable(ln.Addr().String(), opts)
	if err != nil {
		return BrokerResult{}, err
	}
	defer func() { _ = pub.Close() }()
	rcv, err := client.DialReliable(ln.Addr().String(), opts)
	if err != nil {
		return BrokerResult{}, err
	}
	defer func() { _ = rcv.Close() }()
	rs, err := rcv.Subscribe(ctx, topicName, wire.FilterSpec{
		Mode: wire.FilterCorrelationID,
		Expr: "#0",
	}, 1<<12)
	if err != nil {
		return BrokerResult{}, err
	}
	go func() {
		for range rs.Chan() {
		}
	}()
	message := func() (*jms.Message, error) {
		m := jms.NewMessage(topicName)
		return m, m.SetCorrelationID("#0")
	}

	brokers := []*broker.Broker{b}
	b.TakeTape(topicName)
	eb, err := probeService(brokers, topicName, 1, func(int) error {
		m, err := message()
		if err != nil {
			return err
		}
		return b.Publish(ctx, m)
	})
	if err != nil {
		return BrokerResult{}, err
	}
	if _, err := loadgen.Run(ctx, stats.NewRNG(cfg.Seed), cfg.Rho/eb, cfg.Messages, func(ctx context.Context, _ int, _ time.Time) error {
		m, err := message()
		if err != nil {
			return err
		}
		return pub.Publish(ctx, m)
	}); err != nil {
		return BrokerResult{}, fmt.Errorf("conformance: publish: %w", err)
	}
	tapes, err := awaitTapes(brokers, topicName, cfg.Messages)
	if err != nil {
		return BrokerResult{}, err
	}
	rep, err := AnalyzeTape(tapes[0], cfg.Warmup, cfg.Quantile)
	if err != nil {
		return BrokerResult{}, err
	}
	return BrokerResult{
		TapeReport:     rep,
		ProbeService:   eb,
		Resets:         fn.Stats().Resets,
		Reconnects:     reg.Counter(client.MetricReconnects).Value(),
		PublishRetries: reg.Counter(client.MetricPublishRetries).Value(),
		Duplicates:     srv.DuplicatesSuppressed(),
	}, nil
}

// probeService measures E[B] closed-loop, one message in flight at a
// time: publish(i) sends message i only once message i−1 is on the tapes
// of all perMessage brokers that serve it. It returns the mean End − Start
// over those tape entries.
func probeService(brokers []*broker.Broker, topicName string, perMessage int, publish func(i int) error) (float64, error) {
	var all []broker.TapeEntry
	for i := 0; i < probeMessages; i++ {
		if err := publish(i); err != nil {
			return 0, fmt.Errorf("conformance: probe: %w", err)
		}
		tapes, err := awaitTapes(brokers, topicName, perMessage)
		if err != nil {
			return 0, err
		}
		for _, tape := range tapes {
			all = append(all, tape...)
		}
	}
	return broker.MeanService(all), nil
}

// awaitTapes collects the tapes of topicName on brokers until they hold
// want entries between them — every accepted message is committed exactly
// once, so this is the end of a phase — and returns them per broker.
func awaitTapes(brokers []*broker.Broker, topicName string, want int) ([][]broker.TapeEntry, error) {
	tapes := make([][]broker.TapeEntry, len(brokers))
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := 0
		for i, b := range brokers {
			entries, overwritten := b.TakeTape(topicName)
			if overwritten > 0 {
				return nil, fmt.Errorf("conformance: phase overran the tape by %d entries", overwritten)
			}
			tapes[i] = append(tapes[i], entries...)
			got += len(tapes[i])
		}
		if got >= want {
			return tapes, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("conformance: brokers committed %d of %d messages", got, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
