package distrib

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// paperScenario is Fig. 15's setting: E[R]=1, rho=0.9, correlation ID
// filtering, 10 filters per subscriber.
func paperScenario(n, m int) Scenario {
	return Scenario{
		Model:       core.TableICorrelationID,
		N:           n,
		M:           m,
		NFltrPerSub: 10,
		MeanR:       1,
		Rho:         0.9,
	}
}

func TestSSRCapacityIndependentOfNandM(t *testing.T) {
	base, err := SSRCapacity(paperScenario(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 10, 1000} {
		for _, m := range []int{1, 100, 10000} {
			c, err := SSRCapacity(paperScenario(n, m))
			if err != nil {
				t.Fatal(err)
			}
			if c != base {
				t.Errorf("SSR capacity varies with n=%d m=%d: %g vs %g", n, m, c, base)
			}
		}
	}
	// Eq. 22 hand-check.
	s := paperScenario(1, 1)
	want := 0.9 / (s.Model.TRcv + 10*s.Model.TFltr + 1*s.Model.TTx)
	if math.Abs(base-want)/want > 1e-12 {
		t.Errorf("SSR capacity = %g, want %g", base, want)
	}
}

func TestPSRCapacityScalesWithN(t *testing.T) {
	c1, err := PSRCapacity(paperScenario(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	c10, err := PSRCapacity(paperScenario(10, 100))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c10/c1-10) > 1e-9 {
		t.Errorf("PSR capacity ratio = %g, want 10 (linear in n)", c10/c1)
	}
}

func TestPSRCapacityDegradesWithM(t *testing.T) {
	prev := math.Inf(1)
	for _, m := range []int{1, 10, 100, 1000, 10000} {
		c, err := PSRCapacity(paperScenario(10, m))
		if err != nil {
			t.Fatal(err)
		}
		if c >= prev {
			t.Errorf("PSR capacity not decreasing at m=%d", m)
		}
		prev = c
	}
	// Asymptotically reciprocal in m: capacity(10m)/capacity(m) -> 1/10.
	cBig, err := PSRCapacity(paperScenario(10, 100000))
	if err != nil {
		t.Fatal(err)
	}
	cBig10, err := PSRCapacity(paperScenario(10, 1000000))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := cBig10 / cBig; math.Abs(ratio-0.1) > 0.005 {
		t.Errorf("large-m decade ratio = %g, want ~0.1", ratio)
	}
}

func TestEq21HandCheck(t *testing.T) {
	s := paperScenario(5, 100)
	got, err := PSRCapacity(s)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 * 5 / (s.Model.TRcv + 100*10*s.Model.TFltr + 1*s.Model.TTx)
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("PSR capacity = %g, want %g", got, want)
	}
	per, err := PSRPerServerCapacity(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(per-want/5)/(want/5) > 1e-12 {
		t.Errorf("per-server = %g", per)
	}
}

func TestCrossoverEq23(t *testing.T) {
	// The capacities must actually cross where Eq. 23 says they do.
	for _, m := range []int{1, 10, 100, 1000} {
		s := paperScenario(1, m)
		nCross, err := CrossoverN(s)
		if err != nil {
			t.Fatal(err)
		}
		// At n = nCross, PSR must win; at n = nCross-1 it must not.
		sWin := s
		sWin.N = nCross
		win, err := PSROutperformsSSR(sWin)
		if err != nil {
			t.Fatal(err)
		}
		if !win {
			t.Errorf("m=%d: PSR should win at n=%d", m, nCross)
		}
		psr, err := PSRCapacity(sWin)
		if err != nil {
			t.Fatal(err)
		}
		ssr, err := SSRCapacity(sWin)
		if err != nil {
			t.Fatal(err)
		}
		if psr <= ssr {
			t.Errorf("m=%d n=%d: PSR capacity %g <= SSR %g despite crossover", m, nCross, psr, ssr)
		}
		if nCross > 1 {
			sLose := s
			sLose.N = nCross - 1
			lose, err := PSROutperformsSSR(sLose)
			if err != nil {
				t.Fatal(err)
			}
			if lose {
				t.Errorf("m=%d: PSR should not win at n=%d", m, nCross-1)
			}
		}
	}
}

func TestNetworkLoadComparison(t *testing.T) {
	// "SSR produces significantly more traffic in the network than PSR"
	// because m bounds R from above.
	s := paperScenario(10, 100)
	const rate = 1000.0
	psrNet, err := PSRNetworkLoad(s, rate)
	if err != nil {
		t.Fatal(err)
	}
	ssrNet, err := SSRNetworkLoad(s, rate)
	if err != nil {
		t.Fatal(err)
	}
	if psrNet != rate*1 {
		t.Errorf("PSR network load = %g", psrNet)
	}
	if ssrNet != rate*100 {
		t.Errorf("SSR network load = %g", ssrNet)
	}
	if psrNet >= ssrNet {
		t.Error("PSR must impose less network load than SSR when E[R] < m")
	}
	if _, err := PSRNetworkLoad(s, -1); !errors.Is(err, ErrParams) {
		t.Error("negative rate accepted")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Model: core.TableICorrelationID, N: 0, M: 1, NFltrPerSub: 1, MeanR: 1, Rho: 0.9},
		{Model: core.TableICorrelationID, N: 1, M: 0, NFltrPerSub: 1, MeanR: 1, Rho: 0.9},
		{Model: core.TableICorrelationID, N: 1, M: 1, NFltrPerSub: -1, MeanR: 1, Rho: 0.9},
		{Model: core.TableICorrelationID, N: 1, M: 1, NFltrPerSub: 1, MeanR: -1, Rho: 0.9},
		{Model: core.TableICorrelationID, N: 1, M: 1, NFltrPerSub: 1, MeanR: 1, Rho: 0},
		{Model: core.CostModel{}, N: 1, M: 1, NFltrPerSub: 1, MeanR: 1, Rho: 0.9},
	}
	for i, s := range bad {
		if _, err := PSRCapacity(s); err == nil {
			t.Errorf("case %d: PSRCapacity accepted invalid scenario", i)
		}
		if _, err := SSRCapacity(s); err == nil {
			t.Errorf("case %d: SSRCapacity accepted invalid scenario", i)
		}
	}
}

func TestPSRCapacityHeterogeneous(t *testing.T) {
	s := paperScenario(4, 100)
	// Symmetric sites must reproduce the homogeneous formula.
	sites := []PublisherSite{
		{RateShare: 0.25, MeanR: 1},
		{RateShare: 0.25, MeanR: 1},
		{RateShare: 0.25, MeanR: 1},
		{RateShare: 0.25, MeanR: 1},
	}
	het, err := PSRCapacityHeterogeneous(s, sites)
	if err != nil {
		t.Fatal(err)
	}
	hom, err := PSRCapacity(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(het-hom)/hom > 1e-9 {
		t.Errorf("symmetric heterogeneous = %g, homogeneous = %g", het, hom)
	}

	// A hot publisher carrying half the traffic bounds the system:
	// capacity drops versus the symmetric case.
	skewed := []PublisherSite{
		{RateShare: 0.5, MeanR: 1},
		{RateShare: 0.2, MeanR: 1},
		{RateShare: 0.2, MeanR: 1},
		{RateShare: 0.1, MeanR: 1},
	}
	hetSkewed, err := PSRCapacityHeterogeneous(s, skewed)
	if err != nil {
		t.Fatal(err)
	}
	if hetSkewed >= het {
		t.Errorf("skewed capacity %g should be below symmetric %g", hetSkewed, het)
	}
	// The bottleneck is the 0.5-share site: capacity = perServer/0.5 =
	// half the 4-site symmetric system.
	if math.Abs(hetSkewed-hom/2)/hom > 1e-9 {
		t.Errorf("skewed capacity = %g, want %g", hetSkewed, hom/2)
	}

	// A site with higher replication also lowers the bound.
	heavyR := []PublisherSite{
		{RateShare: 0.5, MeanR: 50},
		{RateShare: 0.5, MeanR: 1},
	}
	s2 := paperScenario(2, 100)
	hetHeavy, err := PSRCapacityHeterogeneous(s2, heavyR)
	if err != nil {
		t.Fatal(err)
	}
	homo2, err := PSRCapacity(s2)
	if err != nil {
		t.Fatal(err)
	}
	if hetHeavy >= homo2 {
		t.Errorf("heavy-R capacity %g should be below symmetric %g", hetHeavy, homo2)
	}

	// Errors.
	if _, err := PSRCapacityHeterogeneous(s, nil); !errors.Is(err, ErrParams) {
		t.Error("empty sites accepted")
	}
	if _, err := PSRCapacityHeterogeneous(s, []PublisherSite{{RateShare: 0.7, MeanR: 1}}); !errors.Is(err, ErrParams) {
		t.Error("shares not summing to 1 accepted")
	}
	if _, err := PSRCapacityHeterogeneous(s, []PublisherSite{{RateShare: 1, MeanR: -1}}); !errors.Is(err, ErrParams) {
		t.Error("negative MeanR accepted")
	}
}

func TestPSRWaitingPathology(t *testing.T) {
	// The paper's warning: at m = 10^4 subscribers a publisher-side server
	// collapses to a few msgs/s with second-scale waits. With the stated
	// n_fltr=10 per subscriber and Table I corrID constants the per-server
	// capacity is ~1.3 msgs/s and waits are seconds.
	s := paperScenario(100, 10000)
	per, err := PSRPerServerCapacity(s)
	if err != nil {
		t.Fatal(err)
	}
	if per > 2 || per < 1 {
		t.Errorf("per-server capacity = %.2f msgs/s, want ~1.3", per)
	}
	meanW, q9999, err := PSRWaiting(s)
	if err != nil {
		t.Fatal(err)
	}
	// E[B] ~ 0.7 s at rho=0.9 -> E[W] = 0.9*E[B]/(2*0.1) ~ 3.2 s; the
	// 99.99% quantile is tens of seconds. The paper quotes 1 s / 10 s for
	// its (slightly different) parameterization; the order of magnitude is
	// the reproduced result.
	if meanW < 1 || meanW > 10 {
		t.Errorf("mean wait = %.2f s, want second-scale", meanW)
	}
	if q9999 < 10 || q9999 > 100 {
		t.Errorf("Q99.99 = %.2f s, want tens of seconds", q9999)
	}
	if q9999 <= meanW {
		t.Error("Q99.99 must exceed the mean wait")
	}

	// A small-m scenario has no such problem.
	small := paperScenario(100, 10)
	meanSmall, _, err := PSRWaiting(small)
	if err != nil {
		t.Fatal(err)
	}
	if meanSmall > 0.01 {
		t.Errorf("small-m mean wait = %g s, should be milliseconds", meanSmall)
	}
	// rho = 1 is rejected.
	bad := small
	bad.Rho = 1
	if _, _, err := PSRWaiting(bad); !errors.Is(err, ErrParams) {
		t.Errorf("rho=1 err = %v", err)
	}
}
