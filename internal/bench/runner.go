package bench

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/loadgen"
	"repro/internal/stats"
)

// This file is the package's one broker driver: every native measurement
// is a scenario run through it and reduced from what it returns.

// loadedTopic is the topic every scenario publishes on.
const loadedTopic = "bench"

// topicSelection is the zero NativeConfig.FilterType: every subscription
// matches everything, and the n non-matching ones sit on topics of their
// own.
const topicSelection core.FilterType = 0

// scenario is one broker experiment: a broker built from cfg, r matching
// and n non-matching subscriptions of cfg.FilterType, a message with a
// body of body bytes, and one measured phase. With rate zero the phase is
// cfg.Publishers saturating publishers (batches of cfg.Batch when > 1)
// measured for cfg.Measure after cfg.Warmup; otherwise it is messages
// Poisson arrivals at rate from loadgen.Run, ending once the last one has
// been committed.
type scenario struct {
	cfg      NativeConfig
	n, r     int
	body     int
	rate     float64
	messages int
}

// phase is what a scenario's measured phase returns: the broker counter
// deltas, the wall time, the loaded topic's tape for a paced or taped phase
// (with the number of entries its ring overwrote) and for a paced phase the
// load generator's account.
type phase struct {
	stats       broker.Stats
	elapsed     time.Duration
	tape        []broker.TapeEntry
	overwritten uint64
	pacing      loadgen.Result
}

// run runs one scenario. Only the r matching subscriptions ever receive,
// so only they get a delivery queue of cfg.SubscriberBuffer and a drain
// goroutine; the n others get one queue slot each, and under topic
// selection a topic of their own.
func run(sc scenario) (phase, error) {
	cfg := sc.cfg.withDefaults()
	if sc.n < 0 || sc.r < 1 {
		return phase{}, fmt.Errorf("%w: n=%d r=%d", ErrBench, sc.n, sc.r)
	}
	template, err := benchMessage(cfg.FilterType, sc.body)
	if err != nil {
		return phase{}, err
	}
	b := broker.New(broker.Options{
		InFlight:         cfg.InFlight,
		SubscriberBuffer: cfg.SubscriberBuffer,
		Engine:           cfg.Engine,
		Shards:           cfg.Shards,
		// A saturated phase tapes only when asked: WaitTiming's clock reads
		// (~0.7 µs a message on a 2-core VM) inflate 1/throughput.
		WaitTiming: sc.rate > 0 || cfg.Taped,
	})
	defer func() { _ = b.Close() }()
	if err := b.ConfigureTopic(loadedTopic); err != nil {
		return phase{}, err
	}
	var drained sync.WaitGroup
	for i := 0; i < sc.r+sc.n; i++ {
		name, v, buffer := loadedTopic, 0, cfg.SubscriberBuffer
		if i >= sc.r {
			v, buffer = i-sc.r+1, 1
			if cfg.NonMatchingIdentical {
				v = 1
			}
			if cfg.FilterType == topicSelection {
				name = "cold" + strconv.Itoa(i)
				if err := b.ConfigureTopic(name); err != nil {
					return phase{}, err
				}
			}
		}
		f, err := filterFor(cfg.FilterType, v)
		if err != nil {
			return phase{}, err
		}
		s, err := b.SubscribeBuffered(name, f, buffer)
		if err != nil {
			return phase{}, err
		}
		if i < sc.r {
			drained.Add(1)
			go func() {
				defer drained.Done()
				for {
					if _, err := s.Receive(context.Background()); err != nil {
						return
					}
				}
			}()
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pubs sync.WaitGroup
	if sc.rate == 0 {
		for p := 0; p < cfg.Publishers; p++ {
			// Each publisher has a key of its own, so on the fast engine
			// the publishers are spread over the topic's workers.
			pub := b.Publisher(uint64(p))
			pubs.Add(1)
			go func() {
				defer pubs.Done()
				for err := error(nil); err == nil && ctx.Err() == nil; {
					if cfg.Batch > 1 {
						// Fresh slice per call: PublishBatch retains it.
						msgs := make([]*jms.Message, cfg.Batch)
						for i := range msgs {
							msgs[i] = template.Clone()
						}
						err = pub.PublishBatch(ctx, msgs)
					} else {
						err = pub.Publish(ctx, template.Clone())
					}
				}
			}()
		}
		time.Sleep(cfg.Warmup)
	}
	// The first take allocates the tape, so recording starts here.
	b.TakeTape(loadedTopic)
	s0, start := b.Stats(), time.Now()
	var ph phase
	if sc.rate == 0 {
		time.Sleep(cfg.Measure)
		// The ring keeps the window's last TapeCapacity messages.
		ph.tape, ph.overwritten = b.TakeTape(loadedTopic)
	} else {
		ph.pacing, err = loadgen.Run(ctx, stats.NewRNG(42), sc.rate, sc.messages, func(ctx context.Context, _ int, _ time.Time) error {
			return b.Publish(ctx, template.Clone())
		})
		if err != nil {
			return phase{}, err
		}
	}
	ph.elapsed = time.Since(start)
	// A paced phase ends once every message is on the tape. Closing the
	// broker earlier would cut short a transmit blocked on a full
	// subscriber queue and drop that copy.
	for sc.rate > 0 {
		entries, overwritten := b.TakeTape(loadedTopic)
		ph.tape, ph.overwritten = append(ph.tape, entries...), ph.overwritten+overwritten
		if len(ph.tape)+int(ph.overwritten) >= sc.messages {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	s1 := b.Stats()
	ph.stats = broker.Stats{
		Received:    s1.Received - s0.Received,
		Dispatched:  s1.Dispatched - s0.Dispatched,
		FilterEvals: s1.FilterEvals - s0.FilterEvals,
		Expired:     s1.Expired - s0.Expired,
	}
	cancel()
	pubs.Wait()
	_ = b.Close()
	drained.Wait()
	return ph, nil
}

// measure runs a saturated scenario cfg.Repetitions times and returns the
// run with the median received rate.
func measure(sc scenario) (NativeResult, error) {
	sc.cfg = sc.cfg.withDefaults()
	runs := make([]NativeResult, 0, sc.cfg.Repetitions)
	for i := 0; i < sc.cfg.Repetitions; i++ {
		ph, err := run(sc)
		if err != nil {
			return NativeResult{}, err
		}
		secs := ph.elapsed.Seconds()
		recv, disp := float64(ph.stats.Received)/secs, float64(ph.stats.Dispatched)/secs
		if recv <= 0 {
			return NativeResult{}, fmt.Errorf("%w: zero received rate", ErrBench)
		}
		res := NativeResult{
			NFltr:           sc.n + sc.r,
			R:               sc.r,
			ReceivedRate:    recv,
			DispatchedRate:  disp,
			OverallRate:     recv + disp,
			MeanServiceTime: 1 / recv,
		}
		if sc.cfg.Taped {
			if len(ph.tape) == 0 {
				return NativeResult{}, fmt.Errorf("%w: empty tape", ErrBench)
			}
			var evals int
			for _, e := range ph.tape {
				evals += e.Evals
			}
			res.Evals = float64(evals) / float64(len(ph.tape))
			res.TapedService, _, _ = broker.ServiceMoments(ph.tape)
		}
		runs = append(runs, res)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].ReceivedRate < runs[j].ReceivedRate })
	return runs[len(runs)/2], nil
}

// filterFor returns the filter of the family selecting value v: v = 0
// matches benchMessage, any other value does not. Topic selection installs
// match-all subscriptions.
func filterFor(ft core.FilterType, v int) (filter.Filter, error) {
	switch ft {
	case topicSelection:
		return filter.All{}, nil
	case core.CorrelationIDFiltering:
		return filter.NewCorrelationID("#" + strconv.Itoa(v))
	case core.ApplicationPropertyFiltering:
		return filter.NewProperty("prop = " + strconv.Itoa(v))
	}
	return nil, fmt.Errorf("%w: filter type %d", ErrBench, int(ft))
}

// benchMessage builds the message all publishers send, cloned per send as
// from the paper's pre-created pools: correlation ID #0 or property
// prop=0, and a body of the given size (zero bytes in the paper).
func benchMessage(ft core.FilterType, body int) (*jms.Message, error) {
	m := jms.NewMessage(loadedTopic)
	if body > 0 {
		m.Body = make([]byte, body)
	}
	var err error
	switch ft {
	case topicSelection:
	case core.CorrelationIDFiltering:
		err = m.SetCorrelationID("#0")
	case core.ApplicationPropertyFiltering:
		err = m.SetInt32Property("prop", 0)
	default:
		err = fmt.Errorf("%w: filter type %d", ErrBench, int(ft))
	}
	return m, err
}
