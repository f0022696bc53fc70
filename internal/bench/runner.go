package bench

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
)

// This file is the package's one broker: every native measurement is a
// scenario the load loop (load.go) runs in process, reduced from its phase.

// loadedTopic is the topic every scenario publishes on.
const loadedTopic = "bench"

// topicSelection is the zero NativeConfig.FilterType: every subscription
// matches everything, and the n non-matching ones sit on topics of their
// own.
const topicSelection core.FilterType = 0

// scenario is one broker experiment: a broker built from cfg, r matching
// and n non-matching subscriptions of cfg.FilterType, a message with a
// body of body bytes, and one measured Phase: with rate zero,
// cfg.Publishers saturating publishers (batches of cfg.Batch when > 1)
// after cfg.Warmup for cfg.Measure, otherwise messages Poisson arrivals at
// rate, ending once the last one has been committed.
type scenario struct {
	cfg        NativeConfig
	n, r, body int
	rate       float64
	messages   int
}

// phase is what a scenario's measured phase returns: the load loop's
// window, the broker counter deltas over it, and for a paced or taped
// phase the loaded topic's tape and the entries its ring overwrote.
type phase struct {
	Window
	stats       broker.Stats
	tape        []broker.TapeEntry
	overwritten uint64
}

// run runs one scenario. Only the r matching subscriptions ever receive,
// so only they get a delivery queue of cfg.SubscriberBuffer and a drain;
// the n others get one queue slot each, and under topic selection a topic
// of their own.
func run(sc scenario) (phase, error) {
	cfg := sc.cfg.withDefaults()
	if sc.n < 0 || sc.r < 1 {
		return phase{}, fmt.Errorf("%w: n=%d r=%d", ErrBench, sc.n, sc.r)
	}
	template, err := benchMessage(loadedTopic, cfg.FilterType, sc.body)
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
	l := load{r: sc.r, msg: template, Phase: Phase{
		Batch: cfg.Batch, Rate: sc.rate, Messages: sc.messages, Seed: 42, Warmup: cfg.Warmup, Measure: cfg.Measure,
	}}
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
		f, err := filterSpec(cfg.FilterType, v).Filter()
		if err != nil {
			return phase{}, err
		}
		s, err := b.SubscribeBuffered(name, f, buffer)
		if err != nil {
			return phase{}, err
		}
		if i < sc.r {
			l.subs = append(l.subs, s)
		}
	}
	// Each saturated publisher has a key of its own, so on the fast engine
	// the publishers are spread over the topic's workers. A paced phase is
	// one Poisson stream on key 0: one worker, the one queue X3 reads.
	for p := 0; p < cfg.Publishers && (p == 0 || sc.rate == 0); p++ {
		l.pubs = append(l.pubs, b.Publisher(uint64(p)))
	}
	var ph phase
	var s0, s1 broker.Stats
	l.Mark = func(open bool) {
		if open {
			// The first take allocates the tape, so recording starts here.
			b.TakeTape(loadedTopic)
			s0 = b.Stats()
		} else if sc.rate == 0 {
			// The ring keeps the window's last TapeCapacity messages.
			ph.tape, ph.overwritten = b.TakeTape(loadedTopic)
			s1 = b.Stats()
		}
	}
	if ph.Window = l.run(); ph.PacingErr != nil {
		return phase{}, ph.PacingErr
	}
	// A paced phase ends once every acked message is on the tape.
	for sc.rate > 0 {
		entries, overwritten := b.TakeTape(loadedTopic)
		ph.tape, ph.overwritten = append(ph.tape, entries...), ph.overwritten+overwritten
		if len(ph.tape)+int(ph.overwritten) >= int(ph.Acked) {
			s1 = b.Stats()
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	ph.stats = broker.Stats{
		Received:    s1.Received - s0.Received,
		Dispatched:  s1.Dispatched - s0.Dispatched,
		FilterEvals: s1.FilterEvals - s0.FilterEvals,
	}
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
		secs := ph.Elapsed.Seconds()
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
