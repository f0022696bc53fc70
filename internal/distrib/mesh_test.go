package distrib

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

func meshScenario() Scenario {
	return Scenario{
		Model:       core.CostModel{TRcv: 100e-6, TFltr: 4e-6, TTx: 140e-6},
		N:           4,
		M:           40,
		NFltrPerSub: 10,
		MeanR:       2,
		Rho:         0.9,
	}
}

func TestHashCapacityLimits(t *testing.T) {
	s := meshScenario()

	// k=1 degenerates to a single server carrying every filter — exactly
	// one PSR server.
	h1, err := HashCapacity(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	psr1, err := PSRPerServerCapacity(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h1-psr1)/psr1 > 1e-12 {
		t.Fatalf("HashCapacity(1)=%g != PSR per-server %g", h1, psr1)
	}

	// Capacity grows monotonically with k: more parallelism and fewer
	// local filters per broker.
	prev := 0.0
	for k := 1; k <= 16; k *= 2 {
		c, err := HashCapacity(s, k)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prev {
			t.Fatalf("HashCapacity(%d)=%g not > %g", k, c, prev)
		}
		prev = c
	}

	// With m subscribers partitioned over k=m brokers, the per-server
	// denominator equals SSR's, so the system capacity is m times Eq. 22.
	hm, err := HashCapacity(s, s.M)
	if err != nil {
		t.Fatal(err)
	}
	ssr, err := SSRCapacity(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hm-float64(s.M)*ssr)/hm > 1e-12 {
		t.Fatalf("HashCapacity(m)=%g != m*SSR %g", hm, float64(s.M)*ssr)
	}

	if _, err := HashCapacity(s, 0); err == nil {
		t.Fatal("want error for k=0")
	}
}

func TestSSRWaitingBenign(t *testing.T) {
	s := meshScenario()
	ssrMean, ssrQ, err := SSRWaiting(s)
	if err != nil {
		t.Fatal(err)
	}
	psrMean, psrQ, err := PSRWaiting(s)
	if err != nil {
		t.Fatal(err)
	}
	// Same utilization, but the SSR server's service time omits the
	// (m-1)*n_fltr extra filter scans — its waiting must be strictly
	// shorter on both moments.
	if ssrMean >= psrMean || ssrQ >= psrQ {
		t.Fatalf("SSR waiting (%g, %g) not below PSR (%g, %g)", ssrMean, ssrQ, psrMean, psrQ)
	}
	if ssrMean <= 0 || ssrQ <= ssrMean {
		t.Fatalf("degenerate SSR waiting: mean=%g q9999=%g", ssrMean, ssrQ)
	}
}

func TestWaitingAtRateMatchesUtilizationForm(t *testing.T) {
	s := meshScenario()

	// At lambda = rho/E[B] the at-rate form must reproduce the
	// at-utilization form exactly.
	bPSR := s.Model.TRcv + float64(s.M)*float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx
	mean0, q0, err := PSRWaiting(s)
	if err != nil {
		t.Fatal(err)
	}
	mean1, q1, err := PSRWaitingAtRate(s, s.Rho/bPSR)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean0-mean1)/mean0 > 1e-9 || math.Abs(q0-q1)/q0 > 1e-9 {
		t.Fatalf("PSR at-rate (%g, %g) != at-utilization (%g, %g)", mean1, q1, mean0, q0)
	}

	bSSR := s.Model.TRcv + float64(s.NFltrPerSub)*s.Model.TFltr + s.MeanR*s.Model.TTx
	mean0, q0, err = SSRWaiting(s)
	if err != nil {
		t.Fatal(err)
	}
	mean1, q1, err = SSRWaitingAtRate(s, s.Rho/bSSR)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean0-mean1)/mean0 > 1e-9 || math.Abs(q0-q1)/q0 > 1e-9 {
		t.Fatalf("SSR at-rate (%g, %g) != at-utilization (%g, %g)", mean1, q1, mean0, q0)
	}

	// Waiting grows with the arrival rate.
	hi, _, err := PSRWaitingAtRate(s, s.Rho/bPSR)
	if err != nil {
		t.Fatal(err)
	}
	lo, _, err := PSRWaitingAtRate(s, 0.5*s.Rho/bPSR)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Fatalf("waiting at half rate %g not below full-rate %g", lo, hi)
	}

	if _, _, err := PSRWaitingAtRate(s, 0); err == nil {
		t.Fatal("want error for lambda=0")
	}
	if _, _, err := SSRWaitingAtRate(s, -1); err == nil {
		t.Fatal("want error for negative lambda")
	}
}

func TestMeshCapacityModel(t *testing.T) {
	model := core.TableICorrelationID
	single, err := model.Capacity(0.9, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	mesh1, err := MeshCapacity(model, 1, 1000, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// k=1 degenerates to the single-server formula.
	if math.Abs(mesh1-single)/single > 1e-12 {
		t.Errorf("MeshCapacity(k=1) = %g, single = %g", mesh1, single)
	}
	// For filter-dominated workloads, capacity grows with k.
	mesh4, err := MeshCapacity(model, 4, 1000, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if mesh4 <= mesh1 {
		t.Errorf("mesh capacity did not grow: k=4 %g vs k=1 %g", mesh4, mesh1)
	}
	// Sub-linear speed-up: the per-member t_rcv is not divided by k.
	if mesh4 >= 4*mesh1 {
		t.Errorf("mesh speed-up superlinear: %g vs %g", mesh4, 4*mesh1)
	}
	// Receive-dominated workloads (no filters) cannot scale this way: the
	// mesh capacity stays within a receive-bound of the single server.
	mesh4NoFltr, err := MeshCapacity(model, 4, 0, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if bound := 0.9 / model.TRcv; mesh4NoFltr > bound {
		t.Errorf("no-filter mesh capacity %g exceeds receive bound %g", mesh4NoFltr, bound)
	}
	if _, err := MeshCapacity(model, 0, 1, 1, 0.9); !errors.Is(err, ErrParams) {
		t.Error("k=0 accepted")
	}
	if _, err := MeshCapacity(core.CostModel{}, 2, 1, 1, 0.9); err == nil {
		t.Error("invalid model accepted")
	}
}
