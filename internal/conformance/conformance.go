// Package conformance cross-checks the three implementations of the
// paper's waiting-time model against each other: the closed-form M/G/1-∞
// analysis (internal/mg1, Eqs. 4–5 and 19–20), the Lindley-recursion
// simulator (internal/sim), and the live broker served over a
// fault-injecting transport (internal/faultnet). Each leg produces the
// same two statistics — E[W] and a high quantile of the waiting time —
// so disagreements localize a defect to one layer: analytics vs
// simulation isolates the formulas, and a live broker's tape (tape.go)
// isolates the implementation, because its recorded waits are compared
// with the same recursion and closed forms run on its own recorded
// arrivals and services.
package conformance

import (
	"fmt"
	"math"

	"repro/internal/mg1"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes one analytic/simulated comparison: an M/G/1-∞
// queue with service B = D + R·t_tx (Eq. 1's split into a constant and a
// replication-scaled part).
type Config struct {
	// D is the constant service part t_rcv + n_fltr·t_fltr in seconds.
	D float64
	// TTx is the per-replica transmit time in seconds.
	TTx float64
	// R is the replication-grade distribution.
	R replication.Distribution
	// Rho is the target utilization; the arrival rate is Rho/E[B].
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

func (c Config) withDefaults() Config {
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

// Point is one leg's result: the mean wait and the configured quantile,
// both in seconds.
type Point struct {
	MeanWait float64
	Quantile float64
}

// Analytic evaluates the closed forms: Pollaczek–Khinchine for E[W] and
// the Gamma approximation (Eqs. 19–20) for the quantile.
func Analytic(cfg Config) (Point, error) {
	cfg = cfg.withDefaults()
	b, err := mg1.MomentsFromReplication(cfg.D, cfg.TTx, cfg.R)
	if err != nil {
		return Point{}, err
	}
	q, err := mg1.QueueAtUtilization(cfg.Rho, b)
	if err != nil {
		return Point{}, err
	}
	return queuePoint(q, cfg.Quantile)
}

// Simulated runs the Lindley-recursion M/G/1 simulator with per-message
// replication grades drawn from cfg.R and returns the empirical point.
func Simulated(cfg Config) (Point, error) {
	cfg = cfg.withDefaults()
	b, err := mg1.MomentsFromReplication(cfg.D, cfg.TTx, cfg.R)
	if err != nil {
		return Point{}, err
	}
	res, err := sim.SimulateMG1(sim.MG1Config{
		Lambda: cfg.Rho / b.M1,
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

// CheckAgreement compares two legs' points. Each statistic must agree
// within relTol relative error (of the larger magnitude) plus an absTol
// absolute floor that keeps near-zero statistics from demanding
// impossible precision.
func CheckAgreement(a, b Point, relTol, absTol float64) error {
	if err := agree("mean wait", a.MeanWait, b.MeanWait, relTol, absTol); err != nil {
		return err
	}
	return agree("quantile", a.Quantile, b.Quantile, relTol, absTol)
}

func agree(what string, x, y, relTol, absTol float64) error {
	if math.IsNaN(x) || math.IsNaN(y) {
		return fmt.Errorf("conformance: %s is NaN (%g vs %g)", what, x, y)
	}
	limit := absTol + relTol*math.Max(math.Abs(x), math.Abs(y))
	if diff := math.Abs(x - y); diff > limit {
		return fmt.Errorf("conformance: %s disagrees: %.6g vs %.6g (diff %.3g > %.3g)",
			what, x, y, diff, limit)
	}
	return nil
}
