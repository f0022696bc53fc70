// M^X/G/1-∞ batch-arrival extension of the paper's waiting-time analysis.
//
// The paper's model (Eqs. 4–5) assumes one message per Poisson arrival.
// The batched publish path coalesces X >= 1 messages into one frame, so
// arrivals become Poisson batches at rate lambda_b and the per-message
// waiting time decomposes as
//
//	W = V + Y,
//
// where V is the waiting time of the whole batch — an M/G/1 wait at rate
// lambda_b whose "super-customer" service S_B is the sum of X i.i.d.
// message services — and Y is the service of the A batch-mates ahead of
// the tagged message in its own batch. V and Y are independent, which
// gives closed forms for E[W] and E[W^2] in terms of the first three
// moments of X and B, collapsing exactly to Eqs. 4–5 when X ≡ 1. The
// Gamma quantile approximation (Eqs. 19–20) carries over with the delay
// probability P(W > 0) = 1 - (1-rho)/E[X]: a message waits zero only if
// the server is idle AND it is first in its batch.
package mg1

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// BatchMoments are the first three raw moments of the batch size X, a
// random variable on {1, 2, ...}.
type BatchMoments struct {
	M1 float64 // E[X]
	M2 float64 // E[X^2]
	M3 float64 // E[X^3]
}

// Valid checks elementary moment consistency for a size distribution on
// {1, 2, ...}.
func (x BatchMoments) Valid() error {
	if x.M1 < 1 || x.M2 <= 0 || x.M3 <= 0 ||
		math.IsNaN(x.M1) || math.IsNaN(x.M2) || math.IsNaN(x.M3) {
		return fmt.Errorf("%w: batch moments %+v (E[X] must be >= 1)", ErrParams, x)
	}
	if x.M2 < x.M1*x.M1*(1-1e-12) {
		return fmt.Errorf("%w: E[X^2]=%g < E[X]^2=%g", ErrParams, x.M2, x.M1*x.M1)
	}
	return nil
}

// BatchDist is a batch-size distribution: exact moments for the closed
// forms and a sampler for the Lindley simulation leg.
type BatchDist interface {
	// Moments returns the first three raw moments of X.
	Moments() BatchMoments
	// Sample draws one batch size >= 1.
	Sample(rng *stats.RNG) int
}

// FixedBatch is the deterministic batch size X ≡ K — the saturated
// publisher that always fills its batch.
type FixedBatch struct{ K int }

// NewFixedBatch validates K >= 1.
func NewFixedBatch(k int) (FixedBatch, error) {
	if k < 1 {
		return FixedBatch{}, fmt.Errorf("%w: fixed batch size %d", ErrParams, k)
	}
	return FixedBatch{K: k}, nil
}

// Moments returns (K, K^2, K^3).
func (f FixedBatch) Moments() BatchMoments {
	k := float64(f.K)
	return BatchMoments{M1: k, M2: k * k, M3: k * k * k}
}

// Sample returns K.
func (f FixedBatch) Sample(*stats.RNG) int { return f.K }

// GeometricBatch is the geometric batch size on {1, 2, ...} with success
// probability P: P(X = k) = P(1-P)^(k-1) — a batch that grows until an
// independent per-slot stop. A coalescing client's MSG_BATCH frame is 1 +
// the publishes that arrive while its join window (writer wake-up plus any
// write in flight) stays open: for publishes at Poisson rate λ, E[X] = 1 +
// λ·E[window] while that stays well under BatchMax. The frame is
// geometric when the window is exponential. Measured frames keep that mean
// but have a heavier tail than both this law at P = 1/E[X] and a fixed
// window's 1 + Poisson: the window is mostly a microsecond wake-up with
// rare long stalls (EXPERIMENTS.md X25).
type GeometricBatch struct{ P float64 }

// NewGeometricBatch validates P in (0, 1].
func NewGeometricBatch(p float64) (GeometricBatch, error) {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		return GeometricBatch{}, fmt.Errorf("%w: geometric p=%g outside (0,1]", ErrParams, p)
	}
	return GeometricBatch{P: p}, nil
}

// Moments returns the raw moments of the shifted geometric law:
// E[X] = 1/p, E[X^2] = (2-p)/p^2, E[X^3] = (p^2 - 6p + 6)/p^3.
func (g GeometricBatch) Moments() BatchMoments {
	p := g.P
	return BatchMoments{
		M1: 1 / p,
		M2: (2 - p) / (p * p),
		M3: (p*p - 6*p + 6) / (p * p * p),
	}
}

// Sample draws by inverse transform: 1 + floor(ln U / ln(1-p)).
func (g GeometricBatch) Sample(rng *stats.RNG) int {
	if g.P >= 1 {
		return 1
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return 1 + int(math.Floor(math.Log(u)/math.Log(1-g.P)))
}

// UniformBatch is the uniform batch size on {1, ..., K} — a partially
// filled batch with no preferred fill level.
type UniformBatch struct{ K int }

// NewUniformBatch validates K >= 1.
func NewUniformBatch(k int) (UniformBatch, error) {
	if k < 1 {
		return UniformBatch{}, fmt.Errorf("%w: uniform batch bound %d", ErrParams, k)
	}
	return UniformBatch{K: k}, nil
}

// Moments returns the raw moments of the discrete uniform law on {1..K}:
// E[X] = (K+1)/2, E[X^2] = (K+1)(2K+1)/6, E[X^3] = K(K+1)^2/4.
func (u UniformBatch) Moments() BatchMoments {
	k := float64(u.K)
	return BatchMoments{
		M1: (k + 1) / 2,
		M2: (k + 1) * (2*k + 1) / 6,
		M3: k * (k + 1) * (k + 1) / 4,
	}
}

// Sample draws uniformly from {1, ..., K}.
func (u UniformBatch) Sample(rng *stats.RNG) int { return 1 + rng.Intn(u.K) }

// BatchQueue is an M^X/G/1-∞ queue: Poisson batch arrivals at rate
// LambdaB, i.i.d. batch sizes X with moments X, and i.i.d. per-message
// service times B served FIFO one message at a time.
type BatchQueue struct {
	LambdaB float64
	X       BatchMoments
	B       ServiceMoments
}

// NewBatchQueue validates the parameters and requires stability (rho < 1).
func NewBatchQueue(lambdaB float64, x BatchMoments, b ServiceMoments) (BatchQueue, error) {
	if lambdaB <= 0 || math.IsNaN(lambdaB) {
		return BatchQueue{}, fmt.Errorf("%w: lambdaB=%g", ErrParams, lambdaB)
	}
	if err := x.Valid(); err != nil {
		return BatchQueue{}, err
	}
	if err := b.Valid(); err != nil {
		return BatchQueue{}, err
	}
	q := BatchQueue{LambdaB: lambdaB, X: x, B: b}
	if q.Rho() >= 1 {
		return BatchQueue{}, fmt.Errorf("%w: rho=%g", ErrUnstable, q.Rho())
	}
	return q, nil
}

// BatchQueueAtUtilization builds the queue with batch rate
// lambda_b = rho / (E[X] E[B]), the batched analogue of
// QueueAtUtilization.
func BatchQueueAtUtilization(rho float64, x BatchMoments, b ServiceMoments) (BatchQueue, error) {
	if rho <= 0 || rho >= 1 || math.IsNaN(rho) {
		return BatchQueue{}, fmt.Errorf("%w: rho=%g outside (0,1)", ErrParams, rho)
	}
	if err := x.Valid(); err != nil {
		return BatchQueue{}, err
	}
	if err := b.Valid(); err != nil {
		return BatchQueue{}, err
	}
	return BatchQueue{LambdaB: rho / (x.M1 * b.M1), X: x, B: b}, nil
}

// Lambda returns the per-message arrival rate lambda = lambda_b * E[X].
func (q BatchQueue) Lambda() float64 { return q.LambdaB * q.X.M1 }

// Rho returns the utilization rho = lambda * E[B]; messages are served
// one at a time, so utilization is insensitive to how they arrive.
func (q BatchQueue) Rho() float64 { return q.Lambda() * q.B.M1 }

// SuperMoments returns the service moments of the batch super-customer
// S_B = B_1 + ... + B_X (a random sum of X i.i.d. services):
//
//	E[S_B]   = E[X] E[B]
//	E[S_B^2] = E[X] E[B^2] + (E[X^2]-E[X]) E[B]^2
//	E[S_B^3] = E[X] E[B^3] + 3 (E[X^2]-E[X]) E[B^2] E[B]
//	           + (E[X^3]-3E[X^2]+2E[X]) E[B]^3
//
// An M/G/1 queue at rate LambdaB with this service is exactly the
// batch-level view of the M^X/G/1 queue.
func (q BatchQueue) SuperMoments() ServiceMoments {
	m1, m2, m3 := q.X.M1, q.X.M2, q.X.M3
	s1, s2, s3 := q.B.M1, q.B.M2, q.B.M3
	return ServiceMoments{
		M1: m1 * s1,
		M2: m1*s2 + (m2-m1)*s1*s1,
		M3: m1*s3 + 3*(m2-m1)*s2*s1 + (m3-3*m2+2*m1)*s1*s1*s1,
	}
}

// positionMoments returns the first two moments of A, the number of
// same-batch messages served ahead of a uniformly tagged message. With
// the size-biased batch law P(X'=k) = k P(X=k)/E[X] and A uniform on
// {0..X'-1},
//
//	E[A]   = (E[X^2]-E[X]) / (2 E[X])
//	E[A^2] = (2E[X^3]-3E[X^2]+E[X]) / (6 E[X]).
func (q BatchQueue) positionMoments() (ea, ea2 float64) {
	m1, m2, m3 := q.X.M1, q.X.M2, q.X.M3
	return (m2 - m1) / (2 * m1), (2*m3 - 3*m2 + m1) / (6 * m1)
}

// MeanWait returns E[W], the batched Pollaczek–Khinchine mean: Eq. 4's
// term plus the batch penalty paid for the batch-mates served first,
//
//	E[W] = lambda E[B^2] / (2(1-rho))
//	     + (E[X^2]-E[X]) E[B] / (2 E[X] (1-rho)).
//
// With X ≡ 1 the second term vanishes and Eq. 4 is recovered.
func (q BatchQueue) MeanWait() float64 {
	rho := q.Rho()
	return q.Lambda()*q.B.M2/(2*(1-rho)) +
		(q.X.M2-q.X.M1)*q.B.M1/(2*q.X.M1*(1-rho))
}

// WaitMoment2 returns E[W^2] via the independent decomposition W = V + Y:
// V is the batch's own M/G/1 wait (rate LambdaB, service SuperMoments),
// Y = B_1 + ... + B_A the intra-batch backlog, so
// E[W^2] = E[V^2] + 2 E[V] E[Y] + E[Y^2].
func (q BatchQueue) WaitMoment2() float64 {
	super := Queue{Lambda: q.LambdaB, B: q.SuperMoments()}
	ev := super.MeanWait()
	ev2 := super.WaitMoment2()
	ea, ea2 := q.positionMoments()
	s1, s2 := q.B.M1, q.B.M2
	ey := ea * s1
	ey2 := ea*s2 + (ea2-ea)*s1*s1
	return ev2 + 2*ev*ey + ey2
}

// WaitStdDev returns the standard deviation of W.
func (q BatchQueue) WaitStdDev() float64 {
	ew := q.MeanWait()
	v := q.WaitMoment2() - ew*ew
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// DelayProbability returns P(W > 0) = 1 - (1-rho)/E[X]: a message skips
// the queue only when the server is idle on arrival (probability 1-rho,
// PASTA at the batch level) and it is first in its batch (a uniformly
// tagged message is first with probability 1/E[X], independent of the
// queue state).
func (q BatchQueue) DelayProbability() float64 {
	return 1 - (1-q.Rho())/q.X.M1
}

// MeanResponse returns the mean sojourn time E[T] = E[W] + E[B].
func (q BatchQueue) MeanResponse() float64 { return q.MeanWait() + q.B.M1 }

// MeanQueueLength returns L_q = lambda * E[W] (Little's law).
func (q BatchQueue) MeanQueueLength() float64 { return q.Lambda() * q.MeanWait() }

// GammaApprox fits the Eqs. 19–20 two-part approximation with the batch
// delay probability in place of rho: the conditional moments of
// W1 = W | W > 0 are E[W^k] / P(W > 0), fitted by a Gamma law exactly as
// in the per-message model.
func (q BatchQueue) GammaApprox() (WaitDist, error) {
	pd := q.DelayProbability()
	if pd <= 0 {
		return WaitDist{}, fmt.Errorf("%w: delay probability %g", ErrParams, pd)
	}
	return fitWaitDist(pd, q.MeanWait()/pd, q.WaitMoment2()/pd)
}
