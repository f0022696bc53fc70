package sim

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// BatchSampler draws one batch size >= 1.
type BatchSampler func(rng *stats.RNG) int

// MXG1Config parameterizes an M^X/G/1-∞ simulation run: Poisson batch
// arrivals, i.i.d. batch sizes, i.i.d. per-message services.
type MXG1Config struct {
	// LambdaB is the Poisson batch-arrival rate (batches/s).
	LambdaB float64
	// Batch draws per-arrival batch sizes.
	Batch BatchSampler
	// Service draws per-message service times.
	Service ServiceSampler
	// Customers is the number of served messages to simulate. Whole
	// batches are processed, so the run may overshoot by one batch.
	Customers int
	// Warmup is the number of initial messages excluded from statistics.
	Warmup int
	// Seed makes the run reproducible.
	Seed int64
}

// SimulateMXG1 runs an M^X/G/1-∞ queue on the same Lindley recursion as
// SimulateMG1: a batch is a run of arrivals with zero gaps between them,
// so the j-th message of a batch waits for its batch head plus the
// services of its j-1 batch-mates ahead — exactly the per-message FIFO
// waiting time the closed forms describe. Results reuse MG1Result.
func SimulateMXG1(cfg MXG1Config) (MG1Result, error) {
	if cfg.LambdaB <= 0 || math.IsNaN(cfg.LambdaB) {
		return MG1Result{}, fmt.Errorf("%w: lambdaB=%g", ErrSim, cfg.LambdaB)
	}
	if cfg.Batch == nil {
		return MG1Result{}, fmt.Errorf("%w: nil batch sampler", ErrSim)
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
			gap = rng.Exp(cfg.LambdaB)
		}
		k := cfg.Batch(rng)
		if k < 1 {
			return MG1Result{}, fmt.Errorf("%w: batch sample %d", ErrSim, k)
		}
		for j := 0; j < k; j++ {
			if err := s.serve(gap, cfg.Service(rng)); err != nil {
				return MG1Result{}, err
			}
			gap = 0 // the batch-mates arrive with their head
		}
	}
	return s.result(), nil
}
