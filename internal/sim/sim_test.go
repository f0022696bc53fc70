package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mg1"
	"repro/internal/replication"
	"repro/internal/stats"
)

func TestSimulateMM1AgainstTheory(t *testing.T) {
	// M/M/1 at rho = 0.8: E[W] = rho/(1-rho) * E[B] = 4 * E[B].
	const meanB = 0.01
	const rho = 0.8
	svc, err := ExponentialService(meanB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateMG1(MG1Config{
		Lambda:    rho / meanB,
		Service:   svc,
		Customers: 400000,
		Warmup:    20000,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	meanW, err := res.Waits.Mean()
	if err != nil {
		t.Fatal(err)
	}
	want := rho / (1 - rho) * meanB
	if math.Abs(meanW-want)/want > 0.05 {
		t.Errorf("simulated E[W] = %g, theory %g (5%% tolerance)", meanW, want)
	}
	if math.Abs(res.ObservedRho-rho) > 0.03 {
		t.Errorf("observed rho = %g, want %g", res.ObservedRho, rho)
	}
	if math.Abs(res.ObservedMeanService-meanB)/meanB > 0.03 {
		t.Errorf("observed E[B] = %g, want %g", res.ObservedMeanService, meanB)
	}
}

func TestSimulateMD1AgainstTheory(t *testing.T) {
	// M/D/1 at rho = 0.5: E[W] = rho*E[B]/(2(1-rho)) = 0.5*E[B].
	const meanB = 0.02
	svc, err := DeterministicService(meanB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateMG1(MG1Config{
		Lambda:    0.5 / meanB,
		Service:   svc,
		Customers: 200000,
		Warmup:    10000,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	meanW, err := res.Waits.Mean()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * meanB / (2 * 0.5)
	if math.Abs(meanW-want)/want > 0.05 {
		t.Errorf("simulated E[W] = %g, theory %g", meanW, want)
	}
}

func TestSimulateMG1Errors(t *testing.T) {
	svc, err := DeterministicService(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []MG1Config{
		{Lambda: 0, Service: svc, Customers: 10},
		{Lambda: 1, Service: nil, Customers: 10},
		{Lambda: 1, Service: svc, Customers: 0},
		{Lambda: 1, Service: svc, Customers: 10, Warmup: 10},
		{Lambda: 1, Service: svc, Customers: 10, Warmup: -1},
	}
	for i, cfg := range cases {
		if _, err := SimulateMG1(cfg); !errors.Is(err, ErrSim) {
			t.Errorf("case %d err = %v, want ErrSim", i, err)
		}
	}
	bad := MG1Config{
		Lambda:    1,
		Service:   func(*stats.RNG) float64 { return -1 },
		Customers: 10,
	}
	if _, err := SimulateMG1(bad); !errors.Is(err, ErrSim) {
		t.Errorf("negative service err = %v", err)
	}
}

// TestReplay pins the recursion on a hand-computed path, including an idle
// period and two arrivals stamped out of order.
func TestReplay(t *testing.T) {
	for _, tc := range []struct {
		arrivals, services, want []float64
	}{
		// W1 = 2-1, W2 = 1+1-0.5, W3 = max(0, 1.5+0.5-3.5).
		{[]float64{0, 1, 1.5, 5}, []float64{2, 1, 0.5, 1}, []float64{0, 1, 1.5, 0}},
		// The third customer was stamped 0.1 before the second: it starts
		// when the second ends, at 2.0, after waiting 1.1.
		{[]float64{0, 1, 0.9}, []float64{1, 1, 1}, []float64{0, 0, 1.1}},
	} {
		got, err := Replay(tc.arrivals, tc.services)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.want {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("Replay(%v, %v) = %v, want %v", tc.arrivals, tc.services, got, tc.want)
				break
			}
		}
	}
	if _, err := Replay([]float64{0, 1}, []float64{1}); !errors.Is(err, ErrSim) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := Replay([]float64{0, 1}, []float64{1, -1}); !errors.Is(err, ErrSim) {
		t.Errorf("negative service err = %v", err)
	}
}

// TestSimulateMG1IsReplayOfItsPath: the sampler and Replay run one
// recursion, so replaying the path SimulateMG1 drew gives its waits.
func TestSimulateMG1IsReplayOfItsPath(t *testing.T) {
	const lambda, n = 800.0, 5000
	svc, err := ExponentialService(0.001)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateMG1(MG1Config{Lambda: lambda, Service: svc, Customers: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	arrivals, services := make([]float64, n), make([]float64, n)
	for i := range arrivals {
		if i > 0 {
			arrivals[i] = arrivals[i-1] + rng.Exp(lambda)
		}
		services[i] = svc(rng)
	}
	waits, err := Replay(arrivals, services)
	if err != nil {
		t.Fatal(err)
	}
	replayed := stats.NewSummary()
	for _, w := range waits {
		replayed.Add(w)
	}
	for _, p := range []float64{0.5, 0.99} {
		want, _ := res.Waits.Quantile(p)
		got, _ := replayed.Quantile(p)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("q%g: replay %g, simulation %g", p, got, want)
		}
	}
}

func TestGammaApproximationAgainstSimulation(t *testing.T) {
	// Experiment X2 of DESIGN.md: the paper's Gamma approximation of the
	// waiting-time distribution (Eq. 20) against a discrete-event M/G/1
	// simulation, at rho = 0.9 for a binomial replication grade.
	model := core.TableICorrelationID
	r, err := replication.NewBinomial(40, 0.3) // E[R] = 12
	if err != nil {
		t.Fatal(err)
	}
	const nFltr = 45
	cfg := BrokerConfig{Model: model, NFltr: nFltr, R: r, Seed: 3}

	meanB := model.MeanServiceTime(nFltr, r.Mean())
	const rho = 0.9
	lambda := rho / meanB

	simRes, err := SimulateWaiting(cfg, lambda, 500000, 25000)
	if err != nil {
		t.Fatal(err)
	}

	moments, err := mg1.MomentsFromReplication(model.ConstantPart(nFltr), model.TTx, r)
	if err != nil {
		t.Fatal(err)
	}
	q, err := mg1.NewQueue(lambda, moments)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := q.GammaApprox()
	if err != nil {
		t.Fatal(err)
	}

	// Compare mean.
	simMean, err := simRes.Waits.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simMean-q.MeanWait())/q.MeanWait() > 0.08 {
		t.Errorf("sim E[W] = %g, analytic %g", simMean, q.MeanWait())
	}
	// Compare the 99% quantile ("very good approximation results").
	simQ99, err := simRes.Waits.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	anaQ99, err := dist.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simQ99-anaQ99)/anaQ99 > 0.10 {
		t.Errorf("Q99: sim %g vs Gamma approx %g (>10%% apart)", simQ99, anaQ99)
	}
	// Compare waiting probability P(W>0) ~ rho.
	cc0, err := dist.CCDF(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cc0-rho) > 1e-9 {
		t.Errorf("analytic P(W>0) = %g", cc0)
	}
}

func TestSimulateSaturatedMatchesEq1(t *testing.T) {
	// Saturated virtual-time throughput must match Eq. 1's prediction for
	// a deterministic replication grade.
	model := core.TableICorrelationID
	for _, rVal := range []float64{1, 5, 40} {
		r, err := replication.NewDeterministic(rVal)
		if err != nil {
			t.Fatal(err)
		}
		for _, nFltr := range []int{6, 45, 200} {
			res, err := SimulateSaturated(BrokerConfig{Model: model, NFltr: nFltr, R: r, Seed: 1}, 20000, 1000)
			if err != nil {
				t.Fatal(err)
			}
			wantRecv, wantDisp, wantOverall := model.Throughput(nFltr, rVal)
			if math.Abs(res.Received-wantRecv)/wantRecv > 1e-9 {
				t.Errorf("n=%d R=%g: received %g, want %g", nFltr, rVal, res.Received, wantRecv)
			}
			if math.Abs(res.Dispatched-wantDisp)/math.Max(wantDisp, 1) > 1e-9 {
				t.Errorf("n=%d R=%g: dispatched %g, want %g", nFltr, rVal, res.Dispatched, wantDisp)
			}
			if math.Abs(res.Overall-wantOverall)/wantOverall > 1e-9 {
				t.Errorf("n=%d R=%g: overall %g, want %g", nFltr, rVal, res.Overall, wantOverall)
			}
		}
	}
}

func TestSimulateSaturatedStochasticR(t *testing.T) {
	// With a binomial R, throughput converges to the model's value at
	// E[R].
	model := core.TableIApplicationProperty
	r, err := replication.NewBinomial(40, 0.25) // E[R] = 10
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateSaturated(BrokerConfig{Model: model, NFltr: 50, R: r, Seed: 5}, 200000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	wantRecv, _, _ := model.Throughput(50, 10)
	if math.Abs(res.Received-wantRecv)/wantRecv > 0.01 {
		t.Errorf("received %g, want ~%g", res.Received, wantRecv)
	}
	if math.Abs(res.MeanReplication-10) > 0.2 {
		t.Errorf("mean R = %g, want ~10", res.MeanReplication)
	}
}

func TestSimulateSaturatedErrors(t *testing.T) {
	model := core.TableICorrelationID
	r, err := replication.NewDeterministic(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateSaturated(BrokerConfig{Model: model, NFltr: -1, R: r}, 10, 1); !errors.Is(err, ErrSim) {
		t.Errorf("negative filters err = %v", err)
	}
	if _, err := SimulateSaturated(BrokerConfig{Model: model, NFltr: 1, R: nil}, 10, 1); !errors.Is(err, ErrSim) {
		t.Errorf("nil R err = %v", err)
	}
	if _, err := SimulateSaturated(BrokerConfig{Model: model, NFltr: 1, R: r}, 0, 0); !errors.Is(err, ErrSim) {
		t.Errorf("zero messages err = %v", err)
	}
	if _, err := SimulateSaturated(BrokerConfig{Model: core.CostModel{}, NFltr: 1, R: r}, 10, 1); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestSimulateWaitingRejectsOverload(t *testing.T) {
	model := core.TableICorrelationID
	r, err := replication.NewDeterministic(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := BrokerConfig{Model: model, NFltr: 10, R: r}
	meanB := model.MeanServiceTime(10, 1)
	if _, err := SimulateWaiting(cfg, 1.1/meanB, 1000, 10); !errors.Is(err, ErrSim) {
		t.Errorf("overload err = %v", err)
	}
}

func TestGammaServiceMoments(t *testing.T) {
	svc, err := GammaService(0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(9)
	sum, sumSq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		x := svc(g)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-0.5)/0.5 > 0.02 {
		t.Errorf("mean = %g", mean)
	}
	if math.Abs(sd/mean-0.3)/0.3 > 0.05 {
		t.Errorf("cvar = %g", sd/mean)
	}
	// cvar = 0 degenerates to deterministic.
	det, err := GammaService(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if det(g) != 2 {
		t.Error("cvar=0 sampler not deterministic")
	}
	if _, err := GammaService(-1, 0.1); !errors.Is(err, ErrSim) {
		t.Errorf("negative mean err = %v", err)
	}
}

func BenchmarkSimulateMG1(b *testing.B) {
	svc, err := ExponentialService(0.001)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateMG1(MG1Config{Lambda: 500, Service: svc, Customers: 10000, Warmup: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
