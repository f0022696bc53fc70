package conformance

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/mg1"
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
	// Warmup initial waits are discarded. Default Messages/10.
	Warmup int
	// Seed fixes the Poisson schedule and the fault schedule.
	Seed int64
	// Quantile is the compared tail quantile. Default 0.99.
	Quantile float64
	// Faults configures the transport; Seed defaults to Seed.
	Faults faultnet.Config
	// Calibration configures the saturated E[B] measurement. The
	// zero value uses short windows suitable for tests.
	Calibration bench.NativeConfig
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
	if c.Calibration.FilterType == 0 {
		c.Calibration.FilterType = core.CorrelationIDFiltering
	}
	if c.Calibration.Warmup <= 0 {
		c.Calibration.Warmup = 50 * time.Millisecond
	}
	if c.Calibration.Measure <= 0 {
		c.Calibration.Measure = 200 * time.Millisecond
	}
	if c.Calibration.SubscriberBuffer <= 0 {
		// The filter population is large and almost all of it never
		// matches; small per-subscriber buffers keep memory bounded.
		c.Calibration.SubscriberBuffer = 512
	}
	return c
}

// BrokerResult reports the live leg next to its prediction, plus the
// fault and reliability counters proving the transport actually hurt.
type BrokerResult struct {
	// Observed is the broker's measured waiting-time point at the target
	// load, with the zero-load Baseline mean subtracted: the broker's
	// arrival-to-dispatch path has a constant scheduling-latency floor
	// (channel handoff, goroutine wake-up) that the M/G/1 model of the
	// queue does not describe, so it is calibrated out.
	Observed Point
	// Baseline is the raw zero-load point measuring that floor.
	Baseline Point
	// Predicted is the M/G/1 point at the achieved arrival rate with the
	// calibrated (deterministic) service time.
	Predicted Point
	// MeanService is the calibrated E[B] in seconds.
	MeanService float64
	// Lambda is the achieved arrival rate (msgs/s) and Rho the achieved
	// utilization Lambda·E[B].
	Lambda, Rho float64
	// Waits is the number of post-warmup observations.
	Waits int
	// Resets counts transport-injected connection kills.
	Resets uint64
	// Reconnects, PublishRetries and Duplicates count the reliability
	// layer's responses: redials, republished messages, and server-side
	// suppressed duplicates.
	Reconnects, PublishRetries, Duplicates uint64
}

// RunBroker measures the live broker over a faulty transport and returns
// the observed point next to the model prediction. The service time is
// calibrated first from a saturated run (E[B] = 1/throughput, the
// paper's Section III reading); the broker is then loaded at
// lambda = Rho/E[B] by a reliable client whose publishes survive the
// injected faults. Waiting times are observed broker-side (arrival to
// dispatch), so the transport shapes only the arrival process.
func RunBroker(cfg BrokerConfig) (BrokerResult, error) {
	cfg = cfg.withDefaults()

	cal, err := bench.MeasureScenario(cfg.Calibration, cfg.NFltr, 1)
	if err != nil {
		return BrokerResult{}, fmt.Errorf("conformance: calibration: %w", err)
	}
	eb := cal.MeanServiceTime
	lambda := cfg.Rho / eb

	// Broker with the calibrated filter population and a wait observer.
	var (
		waitMu sync.Mutex
		waits  []float64
	)
	b := broker.New(broker.Options{
		InFlight:         256,
		SubscriberBuffer: 512,
		WaitObserver: func(w time.Duration) {
			waitMu.Lock()
			waits = append(waits, w.Seconds())
			waitMu.Unlock()
		},
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

	// Two front doors to the same broker: the loaded phase goes through
	// the faulty transport; the zero-load baseline phase uses a clean
	// one, so the measured dispatch-latency floor is not distorted by
	// fault-induced arrival bursts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return BrokerResult{}, err
	}
	fn := faultnet.New(cfg.Faults)
	srv := wire.Serve(b, fn.Wrap(ln))
	defer func() { _ = srv.Close() }()
	lnBase, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return BrokerResult{}, err
	}
	srvBase := wire.Serve(b, lnBase)
	defer func() { _ = srvBase.Close() }()

	// Reliable publisher and subscriber sharing one metrics registry.
	reg := metrics.NewRegistry()
	dialCtx, cancelDial := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDial()
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
	pubBase, err := client.DialReliable(lnBase.Addr().String(), opts)
	if err != nil {
		return BrokerResult{}, err
	}
	defer func() { _ = pubBase.Close() }()
	rcv, err := client.DialReliable(ln.Addr().String(), opts)
	if err != nil {
		return BrokerResult{}, err
	}
	defer func() { _ = rcv.Close() }()
	rs, err := rcv.Subscribe(dialCtx, topicName, wire.FilterSpec{
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

	pubCtx, cancelPub := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancelPub()
	rng := stats.NewRNG(cfg.Seed)
	takeWaits := func(from, warmup int) (*stats.Summary, error) {
		waitMu.Lock()
		defer waitMu.Unlock()
		s := stats.NewSummary()
		for _, w := range waits[from+warmup:] {
			s.Add(w)
		}
		return s, nil
	}
	phase := func(p *client.Reliable, lambda float64, messages, warmup int) (Point, float64, error) {
		before := func() int {
			waitMu.Lock()
			defer waitMu.Unlock()
			return len(waits)
		}()
		paced, err := loadgen.Run(pubCtx, rng, lambda, messages, func(ctx context.Context, _ int, _ time.Time) error {
			m := jms.NewMessage(topicName)
			if err := m.SetCorrelationID("#0"); err != nil {
				return err
			}
			return p.Publish(ctx, m)
		})
		if err != nil {
			return Point{}, 0, fmt.Errorf("conformance: publish: %w", err)
		}
		// Every accepted message is dispatched exactly once; wait for
		// the observer to catch up with the tail of the queue.
		deadline := time.Now().Add(30 * time.Second)
		for {
			waitMu.Lock()
			n := len(waits)
			waitMu.Unlock()
			if n >= before+messages {
				break
			}
			if time.Now().After(deadline) {
				return Point{}, 0, fmt.Errorf("conformance: broker dispatched %d of %d messages",
					n-before, messages)
			}
			time.Sleep(5 * time.Millisecond)
		}
		s, err := takeWaits(before, warmup)
		if err != nil {
			return Point{}, 0, err
		}
		mean, err := s.Mean()
		if err != nil {
			return Point{}, 0, err
		}
		qObs, err := s.Quantile(cfg.Quantile)
		if err != nil {
			return Point{}, 0, err
		}
		return Point{MeanWait: mean, Quantile: qObs}, float64(messages) / paced.Elapsed.Seconds(), nil
	}

	// Zero-load baseline over the clean transport: at a few percent
	// utilization the M/G/1 wait is negligible, so the measured mean is
	// the constant dispatch-latency floor, calibrated out of the loaded
	// observation below.
	baseMsgs := cfg.Messages / 4
	baseline, _, err := phase(pubBase, lambda/5, baseMsgs, baseMsgs/10)
	if err != nil {
		return BrokerResult{}, err
	}

	loaded, achieved, err := phase(pub, lambda, cfg.Messages, cfg.Warmup)
	if err != nil {
		return BrokerResult{}, err
	}

	// Predict at the achieved rate: transport faults and send-path
	// backpressure throttle arrivals below the target lambda, and the
	// model must be asked about the load the broker actually saw.
	moments := mg1.ServiceMoments{M1: eb, M2: eb * eb, M3: eb * eb * eb}
	q, err := mg1.NewQueue(achieved, moments)
	if err != nil {
		return BrokerResult{}, fmt.Errorf("conformance: achieved rate %g unstable: %w", achieved, err)
	}
	dist, err := q.GammaApprox()
	if err != nil {
		return BrokerResult{}, err
	}
	qPred, err := dist.Quantile(cfg.Quantile)
	if err != nil {
		return BrokerResult{}, err
	}

	return BrokerResult{
		Observed: Point{
			MeanWait: loaded.MeanWait - baseline.MeanWait,
			Quantile: loaded.Quantile - baseline.MeanWait,
		},
		Baseline:       baseline,
		Predicted:      Point{MeanWait: q.MeanWait(), Quantile: qPred},
		MeanService:    eb,
		Lambda:         achieved,
		Rho:            q.Rho(),
		Waits:          cfg.Messages - cfg.Warmup,
		Resets:         fn.Stats().Resets,
		Reconnects:     reg.Counter(client.MetricReconnects).Value(),
		PublishRetries: reg.Counter(client.MetricPublishRetries).Value(),
		Duplicates:     srv.DuplicatesSuppressed(),
	}, nil
}
