package conformance

import (
	"repro/internal/mg1"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file extends the conformance suite to batched arrivals: the same
// service-time model B = D + R·t_tx, but messages now arrive in Poisson
// batches whose sizes follow a configured law X. The analytic leg is the
// M^X/G/1-∞ extension (internal/mg1's BatchQueue); the simulated leg is
// the batch-level Lindley recursion (internal/sim's SimulateMXG1). The
// live-broker batched path is pinned separately: the broker package's
// metamorphic test proves batched publishes dispatch the exact same
// per-subscriber sequences as individual ones, so the per-message broker
// leg here transfers to batches by construction.

// BatchConfig parameterizes one batched analytic/simulated comparison.
type BatchConfig struct {
	// D is the constant service part t_rcv + n_fltr·t_fltr in seconds.
	D float64
	// TTx is the per-replica transmit time in seconds.
	TTx float64
	// R is the replication-grade distribution.
	R replication.Distribution
	// X is the batch-size law (its Moments feed the analytic leg, its
	// Sample the simulated one).
	X mg1.BatchDist
	// Rho is the target utilization; the batch-arrival rate is
	// Rho/(E[X]·E[B]).
	Rho float64
	// Customers is the number of simulated messages. Default 200000.
	Customers int
	// Warmup messages are excluded from simulation statistics.
	// Default Customers/20.
	Warmup int
	// Seed fixes the simulation RNG.
	Seed int64
	// Quantile is the compared tail quantile. Default 0.99.
	Quantile float64
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.Customers <= 0 {
		c.Customers = 200000
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Customers / 20
	}
	if c.Quantile <= 0 {
		c.Quantile = 0.99
	}
	return c
}

// batchQueue builds the M^X/G/1 queue shared by both legs.
func batchQueue(cfg BatchConfig) (mg1.BatchQueue, error) {
	b, err := mg1.MomentsFromReplication(cfg.D, cfg.TTx, cfg.R)
	if err != nil {
		return mg1.BatchQueue{}, err
	}
	return mg1.BatchQueueAtUtilization(cfg.Rho, cfg.X.Moments(), b)
}

// AnalyticBatch evaluates the M^X/G/1 closed forms: the batch
// Pollaczek–Khinchine mean wait and the Gamma approximation of the
// waiting-time distribution for the quantile.
func AnalyticBatch(cfg BatchConfig) (Point, error) {
	cfg = cfg.withDefaults()
	q, err := batchQueue(cfg)
	if err != nil {
		return Point{}, err
	}
	dist, err := q.GammaApprox()
	if err != nil {
		return Point{}, err
	}
	qt, err := dist.Quantile(cfg.Quantile)
	if err != nil {
		return Point{}, err
	}
	return Point{MeanWait: q.MeanWait(), Quantile: qt}, nil
}

// SimulatedBatch runs the batch-level Lindley simulator with batch sizes
// drawn from cfg.X and per-message replication grades drawn from cfg.R,
// and returns the empirical point.
func SimulatedBatch(cfg BatchConfig) (Point, error) {
	cfg = cfg.withDefaults()
	q, err := batchQueue(cfg)
	if err != nil {
		return Point{}, err
	}
	res, err := sim.SimulateMXG1(sim.MXG1Config{
		LambdaB: q.LambdaB,
		Batch:   cfg.X.Sample,
		Service: func(rng *stats.RNG) float64 {
			return cfg.D + float64(cfg.R.Sample(rng))*cfg.TTx
		},
		Customers: cfg.Customers,
		Warmup:    cfg.Warmup,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	return point(res.Waits, cfg.Quantile)
}
