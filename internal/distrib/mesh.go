package distrib

// This file extends the paper's closed forms (Eqs. 21–23) with the hooks
// the live-mesh conformance leg predicts against: the capacity of the
// consistent-hash topic-partitioned mesh the paper did not have, the SSR
// waiting-time counterpart of PSRWaiting, and waiting-time predictions at
// a measured (rather than utilization-implied) arrival rate, so a live
// run can be compared at the rate it actually achieved.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mg1"
	"repro/internal/replication"
)

// HashCapacity returns the system capacity of a k-broker consistent-hash
// topic-partitioned mesh. Each topic — and with it its subscribers'
// filters — lives on exactly one broker, so with topics spread evenly a
// broker receives 1/k of the message stream and scans only the local
// m/k subscribers' filters:
//
//	lambda_sys = k * rho / (t_rcv + (m/k)*n_fltr*t_fltr + E[R]*t_tx)
//
// Partitioning composes both replication advantages: PSR's k-fold
// parallelism (Eq. 21) without its full filter burden, SSR's reduced
// filter scan (Eq. 22) without its m-fold multicast. The price is that
// the balance only holds when topic load spreads evenly — a hot topic
// saturates its single owner at the owner's per-server capacity.
func HashCapacity(s Scenario, k int) (float64, error) {
	if err := s.Valid(); err != nil {
		return 0, err
	}
	if k < 1 {
		return 0, fmt.Errorf("%w: k=%d", ErrParams, k)
	}
	mLocal := float64(s.M) / float64(k)
	perServer := s.Rho / (s.Model.TRcv + mLocal*float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx)
	return float64(k) * perServer, nil
}

// MeshCapacity is Eq. 22 with per-member shares: the received-message
// capacity of a k-member SSR mesh carrying the workload of a single server
// with n_fltr filters and replication E[R], when subscribers (and their
// filters) are spread evenly across members. Each member processes every
// message (k-1 extra receives system-wide per message) but scans only
// n_fltr/k filters and transmits E[R]/k copies.
func MeshCapacity(model core.CostModel, k, nFltr int, meanR, rho float64) (float64, error) {
	if k < 1 || nFltr < 0 || meanR < 0 || rho <= 0 || rho > 1 {
		return 0, fmt.Errorf("%w: k=%d nFltr=%d meanR=%g rho=%g", ErrParams, k, nFltr, meanR, rho)
	}
	if err := model.Valid(); err != nil {
		return 0, err
	}
	perMember := model.TRcv + float64(nFltr)/float64(k)*model.TFltr + meanR/float64(k)*model.TTx
	return rho / perMember, nil
}

// ssrServiceBase is the deterministic part of one subscriber-side
// server's service time: receive plus the local subscriber's filter scan.
func ssrServiceBase(s Scenario) float64 {
	return s.Model.TRcv + float64(s.NFltrPerSub)*s.Model.TFltr
}

// psrServiceBase is the deterministic part of one publisher-side server's
// service time: receive plus all m subscribers' filter scans.
func psrServiceBase(s Scenario) float64 {
	return s.Model.TRcv + float64(s.M)*float64(s.NFltrPerSub)*s.Model.TFltr
}

// waitingAt builds the M/GI/1 queue for a server with deterministic
// service base d at arrival rate lambda (lambda <= 0 selects the
// utilization s.Rho instead) and returns its mean wait and 99.99%
// quantile.
func waitingAt(s Scenario, d, lambda float64) (meanWait, q9999 float64, err error) {
	r, err := replication.NewDeterministic(s.MeanR)
	if err != nil {
		return 0, 0, err
	}
	moments, err := mg1.MomentsFromReplication(d, s.Model.TTx, r)
	if err != nil {
		return 0, 0, err
	}
	var q mg1.Queue
	if lambda > 0 {
		q, err = mg1.NewQueue(lambda, moments)
	} else {
		q, err = mg1.QueueAtUtilization(s.Rho, moments)
	}
	if err != nil {
		return 0, 0, err
	}
	dist, err := q.GammaApprox()
	if err != nil {
		return 0, 0, err
	}
	if q9999, err = dist.Quantile(0.9999); err != nil {
		return 0, 0, err
	}
	return q.MeanWait(), q9999, nil
}

// SSRWaiting is the subscriber-side counterpart of PSRWaiting: each
// subscriber-side server scans only its own n_fltr filters, so its
// waiting time stays benign at utilizations where a PSR server with the
// same m has long collapsed — the flip side of Eq. 23's capacity
// crossover, visible in latency instead of throughput.
func SSRWaiting(s Scenario) (meanWait, q9999 float64, err error) {
	if err := s.Valid(); err != nil {
		return 0, 0, err
	}
	if s.Rho >= 1 {
		return 0, 0, fmt.Errorf("%w: rho=%g must be < 1 for a waiting-time analysis", ErrParams, s.Rho)
	}
	return waitingAt(s, ssrServiceBase(s), 0)
}

// PSRWaitingAtRate predicts one publisher-side server's mean wait and
// 99.99% quantile at a measured per-server arrival rate, so a live mesh
// run can be checked at the rate it actually achieved rather than at the
// nominal utilization bound.
func PSRWaitingAtRate(s Scenario, lambda float64) (meanWait, q9999 float64, err error) {
	if err := s.Valid(); err != nil {
		return 0, 0, err
	}
	if lambda <= 0 {
		return 0, 0, fmt.Errorf("%w: lambda=%g", ErrParams, lambda)
	}
	return waitingAt(s, psrServiceBase(s), lambda)
}

// SSRWaitingAtRate is PSRWaitingAtRate for a subscriber-side server.
func SSRWaitingAtRate(s Scenario, lambda float64) (meanWait, q9999 float64, err error) {
	if err := s.Valid(); err != nil {
		return 0, 0, err
	}
	if lambda <= 0 {
		return 0, 0, fmt.Errorf("%w: lambda=%g", ErrParams, lambda)
	}
	return waitingAt(s, ssrServiceBase(s), lambda)
}
