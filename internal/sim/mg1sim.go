// Package sim provides the simulation substrate of the reproduction: one
// Lindley recursion for a single FIFO server, fed by M/G/1-∞ and
// M^X/G/1-∞ samplers that cross-validate the paper's Gamma approximation
// (Section IV-B.4) and by Replay over a recorded sample path, and a
// virtual-time broker simulator whose per-message service times follow the
// paper's calibrated cost model, so the measurement figures can be
// regenerated with the paper's Table I constants on any hardware.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// ErrSim is the base error of the simulator.
var ErrSim = errors.New("sim: invalid simulation parameters")

// lindley is the single FIFO server every waiting time in this package
// comes from, the exact recursion
//
//	W_{n+1} = max(0, W_n + B_n - A_{n+1}),
//
// advanced one customer at a time. It also keeps the total work and the
// latest departure, whose ratio is the busy fraction of the run.
type lindley struct {
	v      float64 // W_n + B_n: the work the latest customer left behind
	clock  float64 // arrival time of the latest customer
	work   float64
	depart float64
	n      int
}

// next admits a customer arriving gap after the previous one (the first
// customer's gap is ignored) with service b, and returns its wait.
func (l *lindley) next(gap, b float64) float64 {
	if l.n > 0 {
		l.clock += gap
		l.v -= gap
		if l.v < 0 {
			l.v = 0
		}
	}
	l.n++
	w := l.v
	l.work += b
	if d := l.clock + w + b; d > l.depart {
		l.depart = d
	}
	l.v += b
	return w
}

// Replay runs the recursion over a recorded sample path: customer i
// arrived at arrivals[i] and was served for services[i], both in seconds,
// listed in service order. It returns every customer's FIFO waiting time.
// Arrival stamps taken by concurrent publishers may be slightly out of
// order; the negative gap is replayed as it is, which keeps the result
// the earliest start a work-conserving server could have given each
// customer.
func Replay(arrivals, services []float64) ([]float64, error) {
	if len(arrivals) != len(services) {
		return nil, fmt.Errorf("%w: %d arrivals, %d services", ErrSim, len(arrivals), len(services))
	}
	var l lindley
	waits := make([]float64, len(services))
	for i, b := range services {
		if b < 0 || math.IsNaN(b) {
			return nil, fmt.Errorf("%w: service %d is %g", ErrSim, i, b)
		}
		var gap float64
		if i > 0 {
			gap = arrivals[i] - arrivals[i-1]
		}
		waits[i] = l.next(gap, b)
	}
	return waits, nil
}

// ServiceSampler draws one service time in seconds.
type ServiceSampler func(rng *stats.RNG) float64

// MG1Config parameterizes an M/G/1-∞ simulation run.
type MG1Config struct {
	// Lambda is the Poisson arrival rate (msgs/s).
	Lambda float64
	// Service draws per-message service times.
	Service ServiceSampler
	// Customers is the number of served messages to simulate.
	Customers int
	// Warmup is the number of initial messages excluded from statistics —
	// the simulation analogue of the paper's 5 s measurement cut-off.
	Warmup int
	// Seed makes the run reproducible.
	Seed int64
}

// MG1Result carries the collected statistics of a run.
type MG1Result struct {
	// Waits holds the observed waiting times (post-warmup).
	Waits *stats.Summary
	// ObservedRho is the fraction of time the server was busy.
	ObservedRho float64
	// ObservedMeanService is the empirical E[B].
	ObservedMeanService float64
}

// sampled is a simulation run: sampled customers fed to the recursion,
// with the post-warm-up statistics.
type sampled struct {
	lindley
	waits          *stats.Summary
	warmup, served int
	sumService     float64
}

func newSampled(customers, warmup int) (*sampled, error) {
	if customers <= 0 {
		return nil, fmt.Errorf("%w: customers=%d", ErrSim, customers)
	}
	if warmup < 0 || warmup >= customers {
		return nil, fmt.Errorf("%w: warmup=%d of %d", ErrSim, warmup, customers)
	}
	return &sampled{waits: stats.NewSummary(), warmup: warmup}, nil
}

// serve feeds one sampled customer to the recursion.
func (s *sampled) serve(gap, b float64) error {
	if b < 0 || math.IsNaN(b) {
		return fmt.Errorf("%w: service sample %g", ErrSim, b)
	}
	w := s.next(gap, b)
	if s.served >= s.warmup {
		s.waits.Add(w)
		s.sumService += b
	}
	s.served++
	return nil
}

func (s *sampled) result() MG1Result {
	res := MG1Result{
		Waits:               s.waits,
		ObservedMeanService: s.sumService / float64(s.served-s.warmup),
	}
	if s.depart > 0 {
		res.ObservedRho = s.work / s.depart
	}
	return res
}

// SimulateMG1 runs an M/G/1-∞ queue: Poisson gaps and sampled services
// fed to the Lindley recursion, which yields the FIFO waiting time of
// every message without an event calendar. The busy fraction is the
// total work over the span of virtual time.
func SimulateMG1(cfg MG1Config) (MG1Result, error) {
	if cfg.Lambda <= 0 || math.IsNaN(cfg.Lambda) {
		return MG1Result{}, fmt.Errorf("%w: lambda=%g", ErrSim, cfg.Lambda)
	}
	if cfg.Service == nil {
		return MG1Result{}, fmt.Errorf("%w: nil service sampler", ErrSim)
	}
	s, err := newSampled(cfg.Customers, cfg.Warmup)
	if err != nil {
		return MG1Result{}, err
	}
	rng := stats.NewRNG(cfg.Seed)
	for s.served < cfg.Customers {
		var gap float64
		if s.served > 0 {
			gap = rng.Exp(cfg.Lambda)
		}
		if err := s.serve(gap, cfg.Service(rng)); err != nil {
			return MG1Result{}, err
		}
	}
	return s.result(), nil
}
