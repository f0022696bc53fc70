// Package distrib implements the paper's two distributed JMS architectures
// (Section IV-C): publisher-side server replication (PSR), where every
// publisher runs its own broker that all subscribers register with, and
// subscriber-side server replication (SSR), where every subscriber runs its
// own broker that all publishers multicast to. It provides the capacity
// formulas (Eqs. 21–22), the crossover rule (Eq. 23) and their hash- and
// mesh-capacity extensions as closed forms only; the running counterparts
// are cluster.Topology (in-process) and cluster.WireMesh (TCP).
package distrib

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mg1"
	"repro/internal/replication"
)

// ErrParams is returned for invalid scenario parameters.
var ErrParams = errors.New("distrib: invalid parameters")

// Scenario describes the symmetric environment of the paper's comparison:
// n publishers with equal rates, m subscribers with nFltrPerSub filters
// each, a common replication grade expectation and a utilization bound.
type Scenario struct {
	Model core.CostModel
	// N is the number of publishers.
	N int
	// M is the number of subscribers.
	M int
	// NFltrPerSub is the number of filters per subscriber (the paper uses
	// 10).
	NFltrPerSub int
	// MeanR is the average replication grade of a message.
	MeanR float64
	// Rho is the per-server utilization bound (the paper uses 0.9).
	Rho float64
}

// Valid checks the scenario.
func (s Scenario) Valid() error {
	if err := s.Model.Valid(); err != nil {
		return err
	}
	if s.N < 1 || s.M < 1 || s.NFltrPerSub < 0 {
		return fmt.Errorf("%w: n=%d m=%d filters=%d", ErrParams, s.N, s.M, s.NFltrPerSub)
	}
	if s.MeanR < 0 || math.IsNaN(s.MeanR) {
		return fmt.Errorf("%w: meanR=%g", ErrParams, s.MeanR)
	}
	if s.Rho <= 0 || s.Rho > 1 {
		return fmt.Errorf("%w: rho=%g", ErrParams, s.Rho)
	}
	return nil
}

// PSRCapacity evaluates Eq. 21: the system capacity of publisher-side
// replication. Every subscriber installs its filters on all n
// publisher-side servers, so each server carries m*nFltrPerSub filters; the
// system capacity is n times the per-server capacity.
func PSRCapacity(s Scenario) (float64, error) {
	if err := s.Valid(); err != nil {
		return 0, err
	}
	perServer := s.Rho / (s.Model.TRcv + float64(s.M)*float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx)
	return float64(s.N) * perServer, nil
}

// PSRPerServerCapacity returns the capacity of a single publisher-side
// server — the quantity whose collapse for large m causes the waiting-time
// problems the paper warns about.
func PSRPerServerCapacity(s Scenario) (float64, error) {
	c, err := PSRCapacity(s)
	if err != nil {
		return 0, err
	}
	return c / float64(s.N), nil
}

// PublisherSite describes one publisher-side server in a heterogeneous
// PSR deployment: its share of the system message rate and the mean
// replication grade of its messages.
type PublisherSite struct {
	// RateShare is the fraction of the system rate this publisher
	// carries; shares must sum to 1.
	RateShare float64
	// MeanR is the average replication grade of this publisher's
	// messages.
	MeanR float64
}

// PSRCapacityHeterogeneous generalizes Eq. 21 to unequal publishers: the
// system capacity is bounded by the site that saturates first,
// lambda_sys = min_i (lambda_i_max / share_i), where each site's
// lambda_i_max uses its own E[R_i]. All sites carry all m*nFltrPerSub
// filters.
func PSRCapacityHeterogeneous(s Scenario, sites []PublisherSite) (float64, error) {
	if err := s.Valid(); err != nil {
		return 0, err
	}
	if len(sites) == 0 {
		return 0, fmt.Errorf("%w: no sites", ErrParams)
	}
	sum := 0.0
	for i, site := range sites {
		if site.RateShare <= 0 || site.MeanR < 0 {
			return 0, fmt.Errorf("%w: site %d: %+v", ErrParams, i, site)
		}
		sum += site.RateShare
	}
	if math.Abs(sum-1) > 1e-9 {
		return 0, fmt.Errorf("%w: rate shares sum to %g, want 1", ErrParams, sum)
	}
	system := math.Inf(1)
	for _, site := range sites {
		perServer := s.Rho / (s.Model.TRcv + float64(s.M)*float64(s.NFltrPerSub)*s.Model.TFltr + site.MeanR*s.Model.TTx)
		if bound := perServer / site.RateShare; bound < system {
			system = bound
		}
	}
	return system, nil
}

// SSRCapacity evaluates Eq. 22: the system capacity of subscriber-side
// replication. Every subscriber-side server receives the full message
// stream and carries only its own subscriber's filters, so the system
// capacity equals the per-server capacity, independent of n and m.
func SSRCapacity(s Scenario) (float64, error) {
	if err := s.Valid(); err != nil {
		return 0, err
	}
	return s.Rho / (s.Model.TRcv + float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx), nil
}

// PSRNetworkLoad returns the traffic imposed on the interconnecting
// network by PSR: sum_i lambda_i * E[R_i] = systemRate * E[R] / ... — for
// the symmetric scenario, messages leave publisher-side servers already
// filtered, so the network carries rate*E[R] copies per second.
func PSRNetworkLoad(s Scenario, systemRate float64) (float64, error) {
	if err := s.Valid(); err != nil {
		return 0, err
	}
	if systemRate < 0 {
		return 0, fmt.Errorf("%w: rate=%g", ErrParams, systemRate)
	}
	return systemRate * s.MeanR, nil
}

// SSRNetworkLoad returns the traffic for SSR: every message is multicast
// to all m subscriber-side servers before filtering, so the network
// carries m copies of every published message.
func SSRNetworkLoad(s Scenario, systemRate float64) (float64, error) {
	if err := s.Valid(); err != nil {
		return 0, err
	}
	if systemRate < 0 {
		return 0, fmt.Errorf("%w: rate=%g", ErrParams, systemRate)
	}
	return systemRate * float64(s.M), nil
}

// PSRWaiting quantifies the waiting-time pathology the paper warns about
// for PSR with many subscribers ("for m = 10^4 ... leading to average
// waiting times of 1 s and to 99.99% quantiles of 10 s"): each
// publisher-side server is an M/GI/1 queue whose service time is dominated
// by the m*nFltrPerSub filter scans. The replication grade is modelled as
// deterministic at s.MeanR (its variability is negligible against the
// filter term at large m). Returns the mean waiting time and the 99.99%
// quantile at the per-server utilization s.Rho.
func PSRWaiting(s Scenario) (meanWait, q9999 float64, err error) {
	if err := s.Valid(); err != nil {
		return 0, 0, err
	}
	if s.Rho >= 1 {
		return 0, 0, fmt.Errorf("%w: rho=%g must be < 1 for a waiting-time analysis", ErrParams, s.Rho)
	}
	r, err := replication.NewDeterministic(s.MeanR)
	if err != nil {
		return 0, 0, err
	}
	d := s.Model.TRcv + float64(s.M)*float64(s.NFltrPerSub)*s.Model.TFltr
	moments, err := mg1.MomentsFromReplication(d, s.Model.TTx, r)
	if err != nil {
		return 0, 0, err
	}
	q, err := mg1.QueueAtUtilization(s.Rho, moments)
	if err != nil {
		return 0, 0, err
	}
	dist, err := q.GammaApprox()
	if err != nil {
		return 0, 0, err
	}
	q9999, err = dist.Quantile(0.9999)
	if err != nil {
		return 0, 0, err
	}
	return q.MeanWait(), q9999, nil
}

// PSROutperformsSSR evaluates the crossover rule (Eq. 23): PSR yields the
// higher system capacity iff
//
//	(t_rcv + m*n_fltr*t_fltr + E[R]*t_tx) / (t_rcv + n_fltr*t_fltr + E[R]*t_tx) < n,
//
// i.e. the per-server slowdown PSR suffers from carrying all m subscribers'
// filters is outweighed by its n-fold parallelism.
func PSROutperformsSSR(s Scenario) (bool, error) {
	if err := s.Valid(); err != nil {
		return false, err
	}
	num := s.Model.TRcv + float64(s.M)*float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx
	den := s.Model.TRcv + float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx
	return num/den < float64(s.N), nil
}

// CrossoverN returns the smallest number of publishers n for which PSR
// outperforms SSR in the given scenario (independent of the scenario's N).
func CrossoverN(s Scenario) (int, error) {
	if err := s.Valid(); err != nil {
		return 0, err
	}
	num := s.Model.TRcv + float64(s.M)*float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx
	den := s.Model.TRcv + float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx
	ratio := num / den
	n := int(math.Floor(ratio)) + 1
	if n < 1 {
		n = 1
	}
	return n, nil
}
