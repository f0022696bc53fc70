package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/mg1"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PaperNValues is the paper's grid of additional non-matching filters.
var PaperNValues = []int{5, 10, 20, 40, 80, 160}

// PaperRValues is the paper's grid of replication grades.
var PaperRValues = []int{1, 2, 5, 10, 20, 40}

// paperFilters are the paper's two filter families with their Table I
// constants.
var paperFilters = []struct {
	ft    core.FilterType
	model core.CostModel
}{
	{core.CorrelationIDFiltering, core.TableICorrelationID},
	{core.ApplicationPropertyFiltering, core.TableIApplicationProperty},
}

// nFltrGrid is the n_fltr axis of the log-log figures, 1 to 10^4 (valid
// constant arguments, so no error).
var nFltrGrid, _ = LogSpaceInts(1, 10000, 12)

// Fig4 regenerates Figure 4: the overall message throughput of the
// saturated server depending on the number of installed filters
// n_fltr = n + R, for each replication grade R. Per series the columns are
// the measured throughput (virtual-time simulation with the calibrated
// constants — the stand-in for the paper's testbed measurement) and the
// model prediction (Eq. 1).
func Fig4(ft core.FilterType, messages int, seed int64) ([]Series, error) {
	model, err := core.TableI(ft)
	if err != nil {
		return nil, err
	}
	if messages <= 0 {
		return nil, fmt.Errorf("%w: messages=%d", ErrBench, messages)
	}
	warmup := messages / 20

	var out []Series
	for _, r := range PaperRValues {
		s := Series{
			Name: fmt.Sprintf("Fig4 %v R=%d", ft, r),
			Cols: []string{"n_fltr", "measured_overall_msgs_per_s", "model_overall_msgs_per_s"},
		}
		for _, n := range PaperNValues {
			nFltr := n + r
			det, err := replication.NewDeterministic(float64(r))
			if err != nil {
				return nil, err
			}
			res, err := sim.SimulateSaturated(sim.BrokerConfig{
				Model: model, NFltr: nFltr, R: det, Seed: seed,
			}, messages, warmup)
			if err != nil {
				return nil, err
			}
			_, _, modelOverall := model.Throughput(nFltr, float64(r))
			s.Rows = append(s.Rows, []float64{float64(nFltr), res.Overall, modelOverall})
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5 regenerates Figure 5: the mean message service time E[B] (Eq. 1)
// over the number of filters, for E[R] in {1, 10, 100} and both filter
// types, on log-log axes.
func Fig5() ([]Series, error) {
	var out []Series
	for _, pf := range paperFilters {
		ft, model := pf.ft, pf.model
		for _, r := range []float64{1, 10, 100} {
			s := Series{
				Name: fmt.Sprintf("Fig5 %v E[R]=%g", ft, r),
				Cols: []string{"n_fltr", "mean_service_time_s"},
			}
			for _, n := range nFltrGrid {
				s.Rows = append(s.Rows, []float64{float64(n), model.MeanServiceTime(n, r)})
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// Fig6 regenerates Figure 6: the server capacity lambda_max (Eq. 2) at
// rho = 0.9 over the number of filters for correlation ID filtering, plus
// the equivalence observation (E[R]=10 and 100 without filters match
// n_fltr = 22 and 240 at E[R]=1).
func Fig6() ([]Series, error) {
	model := core.TableICorrelationID
	var out []Series
	for _, r := range []float64{1, 10, 100} {
		s := Series{
			Name: fmt.Sprintf("Fig6 corrID E[R]=%g rho=0.9", r),
			Cols: []string{"n_fltr", "capacity_msgs_per_s"},
		}
		for _, n := range nFltrGrid {
			c, err := model.Capacity(0.9, n, r)
			if err != nil {
				return nil, err
			}
			s.Rows = append(s.Rows, []float64{float64(n), c})
		}
		out = append(out, s)
	}

	return append(out, Series{
		Name: "Fig6 equivalence: E[R] vs n_fltr at equal capacity",
		Cols: []string{"mean_R", "equivalent_n_fltr"},
		Rows: [][]float64{{10, model.EquivalentFilters(10)}, {100, model.EquivalentFilters(100)}},
	}), nil
}

// Eq3Table regenerates the Section IV-A.2 break-even analysis: for each
// filter type and per-consumer filter count, the largest match probability
// at which the filters still increase server capacity (Eq. 3).
func Eq3Table() ([]Series, error) {
	var out []Series
	for _, pf := range paperFilters {
		ft, model := pf.ft, pf.model
		s := Series{
			Name: fmt.Sprintf("Eq3 break-even match probability, %v", ft),
			Cols: []string{"n_fltr_q", "break_even_p_match"},
		}
		for nq := 1; nq <= 4; nq++ {
			s.Rows = append(s.Rows, []float64{float64(nq), model.BreakEvenMatchProbability(nq)})
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig8 regenerates Figure 8: the coefficient of variation of the service
// time when the replication grade follows the scaled Bernoulli model, over
// n_fltr for several match probabilities and both filter types.
func Fig8(pMatches []float64) ([]Series, error) {
	if len(pMatches) == 0 {
		pMatches = []float64{0.1, 0.3, 0.5, 0.9}
	}
	return cvarFigure("Fig8 %v scaledBernoulli p=%g", pMatches, func(n int, p float64) (replication.Distribution, error) {
		return replication.NewScaledBernoulli(n, p)
	})
}

// Fig9 regenerates Figure 9: like Fig8 but with the binomial replication
// model, whose service-time variability stays an order of magnitude lower.
func Fig9(pMatches []float64) ([]Series, error) {
	if len(pMatches) == 0 {
		pMatches = []float64{0.1, 0.5, 0.9}
	}
	return cvarFigure("Fig9 %v binomial p=%g", pMatches, func(n int, p float64) (replication.Distribution, error) {
		return replication.NewBinomial(n, p)
	})
}

// cvarFigure is Figs. 8 and 9: cvar[B] over n_fltr for each match
// probability and both filter types, the replication grade drawn from the
// family newR builds.
func cvarFigure(name string, pMatches []float64, newR func(n int, p float64) (replication.Distribution, error)) ([]Series, error) {
	var out []Series
	for _, pf := range paperFilters {
		ft, model := pf.ft, pf.model
		for _, p := range pMatches {
			s := Series{Name: fmt.Sprintf(name, ft, p), Cols: []string{"n_fltr", "cvar_B"}}
			for _, n := range nFltrGrid {
				r, err := newR(n, p)
				if err != nil {
					return nil, err
				}
				m, err := mg1.MomentsFromReplication(model.ConstantPart(n), model.TTx, r)
				if err != nil {
					return nil, err
				}
				s.Rows = append(s.Rows, []float64{float64(n), m.CVar()})
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// Fig10 regenerates Figure 10: the normalized mean waiting time E[W]/E[B]
// over the server utilization rho, for several service-time coefficients
// of variation.
func Fig10(cvars []float64) ([]Series, error) {
	if len(cvars) == 0 {
		cvars = []float64{0, 0.2, 0.4, 0.65}
	}
	var out []Series
	for _, cv := range cvars {
		s := Series{
			Name: fmt.Sprintf("Fig10 cvar[B]=%g", cv),
			Cols: []string{"rho", "mean_wait_over_mean_service"},
		}
		for rho := 0.05; rho < 0.99; rho += 0.05 {
			w, err := mg1.MeanWaitNormalized(rho, cv)
			if err != nil {
				return nil, err
			}
			s.Rows = append(s.Rows, []float64{rho, w})
		}
		out = append(out, s)
	}
	return out, nil
}

// waitDistFor builds the Gamma-approximated waiting-time distribution for
// a normalized service time (E[B]=1) with the given cvar at utilization
// rho, using the scaled Bernoulli family for the third moment (Fig. 11
// shows the family choice is negligible).
func waitDistFor(rho, cvar float64) (mg1.WaitDist, error) {
	fam := mg1.ScaledBernoulliFamily
	if cvar == 0 {
		fam = mg1.DeterministicFamily
	}
	r, err := mg1.FitReplication(0, 0.01, 1, cvar, fam)
	if err != nil {
		return mg1.WaitDist{}, err
	}
	m, err := mg1.MomentsFromReplication(0, 0.01, r)
	if err != nil {
		return mg1.WaitDist{}, err
	}
	q, err := mg1.QueueAtUtilization(rho, m)
	if err != nil {
		return mg1.WaitDist{}, err
	}
	return q.GammaApprox()
}

// Fig11 regenerates Figure 11: the complementary waiting-time distribution
// P(W > t) at rho = 0.9 on a normalized time axis (t in units of E[B]),
// for cvar[B] in {0, 0.2, 0.4}.
func Fig11(rho float64, cvars []float64, maxT float64, points int) ([]Series, error) {
	if rho <= 0 || rho >= 1 || maxT <= 0 || points < 2 {
		return nil, fmt.Errorf("%w: rho=%g maxT=%g points=%d", ErrBench, rho, maxT, points)
	}
	if len(cvars) == 0 {
		cvars = []float64{0, 0.2, 0.4}
	}
	var out []Series
	for _, cv := range cvars {
		dist, err := waitDistFor(rho, cv)
		if err != nil {
			return nil, err
		}
		s := Series{
			Name: fmt.Sprintf("Fig11 rho=%g cvar[B]=%g", rho, cv),
			Cols: []string{"t_over_EB", "P_wait_exceeds_t"},
		}
		for i := 0; i < points; i++ {
			t := maxT * float64(i) / float64(points-1)
			cc, err := dist.CCDF(t)
			if err != nil {
				return nil, err
			}
			s.Rows = append(s.Rows, []float64{t, cc})
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig11DES regenerates Figure 11 with a simulation overlay: for each cvar
// the series carries the Gamma-approximated CCDF and the empirical CCDF
// from a discrete-event M/G/1 run with a Gamma service time of the same
// first two moments — the §IV-B.4 validation that the approximation is
// "very good".
func Fig11DES(rho float64, cvars []float64, maxT float64, points, customers int, seed int64) ([]Series, error) {
	if rho <= 0 || rho >= 1 || maxT <= 0 || points < 2 || customers < 100 {
		return nil, fmt.Errorf("%w: rho=%g maxT=%g points=%d customers=%d", ErrBench, rho, maxT, points, customers)
	}
	if len(cvars) == 0 {
		cvars = []float64{0, 0.2, 0.4}
	}
	var out []Series
	for _, cv := range cvars {
		// The DES draws Gamma(k, theta) service times, so the analytic
		// side uses that distribution's exact raw moments
		// (M1 = k*theta, M2 = k(k+1)*theta^2, M3 = k(k+1)(k+2)*theta^3)
		// for an apples-to-apples comparison of the waiting-time tails.
		var m mg1.ServiceMoments
		if cv == 0 {
			m = mg1.ServiceMoments{M1: 1, M2: 1, M3: 1}
		} else {
			k := 1 / (cv * cv)
			theta := 1 / k
			m = mg1.ServiceMoments{
				M1: 1,
				M2: k * (k + 1) * theta * theta,
				M3: k * (k + 1) * (k + 2) * theta * theta * theta,
			}
		}
		q, err := mg1.QueueAtUtilization(rho, m)
		if err != nil {
			return nil, err
		}
		dist, err := q.GammaApprox()
		if err != nil {
			return nil, err
		}
		svc, err := sim.GammaService(1, cv)
		if err != nil {
			return nil, err
		}
		res, err := sim.SimulateMG1(sim.MG1Config{
			Lambda:    rho, // E[B] = 1, so lambda = rho
			Service:   svc,
			Customers: customers,
			Warmup:    customers / 20,
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		s := Series{
			Name: fmt.Sprintf("Fig11+DES rho=%g cvar[B]=%g", rho, cv),
			Cols: []string{"t_over_EB", "gamma_approx_P_wait_exceeds_t", "simulated_P_wait_exceeds_t"},
		}
		for i := 0; i < points; i++ {
			t := maxT * float64(i) / float64(points-1)
			ana, err := dist.CCDF(t)
			if err != nil {
				return nil, err
			}
			emp, err := empiricalCCDF(res.Waits, t)
			if err != nil {
				return nil, err
			}
			s.Rows = append(s.Rows, []float64{t, ana, emp})
		}
		out = append(out, s)
	}
	return out, nil
}

// empiricalCCDF estimates P(W > t) from a summary by bisecting its
// quantile function.
func empiricalCCDF(w *stats.Summary, t float64) (float64, error) {
	lo, hi := 0.0, 1.0
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		q, err := w.Quantile(mid)
		if err != nil {
			return 0, err
		}
		if q <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 1 - lo, nil
}

// Fig12 regenerates Figure 12: the 99% and 99.99% quantiles of the waiting
// time (normalized by E[B]) over the server utilization, for several
// cvar[B] values.
func Fig12(cvars []float64) ([]Series, error) {
	if len(cvars) == 0 {
		cvars = []float64{0, 0.2, 0.4}
	}
	var out []Series
	for _, cv := range cvars {
		s := Series{
			Name: fmt.Sprintf("Fig12 cvar[B]=%g", cv),
			Cols: []string{"rho", "Q99_over_EB", "Q9999_over_EB"},
		}
		for rho := 0.1; rho <= 0.951; rho += 0.05 {
			dist, err := waitDistFor(rho, cv)
			if err != nil {
				return nil, err
			}
			q99, err := dist.Quantile(0.99)
			if err != nil {
				return nil, err
			}
			q9999, err := dist.Quantile(0.9999)
			if err != nil {
				return nil, err
			}
			s.Rows = append(s.Rows, []float64{rho, q99, q9999})
		}
		out = append(out, s)
	}
	return out, nil
}

// paperScenario is §IV-C's distributed setting: n publisher-side servers,
// m subscribers with 10 correlation-ID filters each, E[R]=1, rho=0.9.
func paperScenario(n, m int) distrib.Scenario {
	return distrib.Scenario{Model: core.TableICorrelationID, N: n, M: m, NFltrPerSub: 10, MeanR: 1, Rho: 0.9}
}

// PSRWaitTable quantifies the §IV-C.3 warning attached to Fig. 15: for
// each subscriber count m, the capacity of a single publisher-side server
// and the waiting times at rho=0.9 (mean and 99.99% quantile) — showing
// how PSR's per-server collapse at large m turns into second-scale waits.
func PSRWaitTable(ms []int) ([]Series, error) {
	if len(ms) == 0 {
		ms = []int{10, 100, 1000, 10000}
	}
	s := Series{
		Name: "PSR per-server waiting at rho=0.9 (corrID, 10 filters/subscriber, E[R]=1)",
		Cols: []string{"m_subscribers", "per_server_capacity_msgs_per_s", "mean_wait_s", "q9999_wait_s"},
	}
	for _, m := range ms {
		sc := paperScenario(1, m)
		per, err := distrib.PSRPerServerCapacity(sc)
		if err != nil {
			return nil, err
		}
		meanW, q9999, err := distrib.PSRWaiting(sc)
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, []float64{float64(m), per, meanW, q9999})
	}
	return []Series{s}, nil
}

// Fig15 regenerates Figure 15: the system capacities of PSR and SSR over
// the number of publishers n for several subscriber counts m, in the
// paper's setting (E[R]=1, rho=0.9, correlation ID filtering, 10 filters
// per subscriber).
func Fig15(ms []int) ([]Series, error) {
	if len(ms) == 0 {
		ms = []int{10, 100, 1000, 10000}
	}
	nGrid, _ := LogSpaceInts(1, 10000, 8) // valid constant arguments
	cross := Series{
		Name: "Fig15 crossover n (Eq. 23): smallest n where PSR beats SSR",
		Cols: []string{"m_subscribers", "crossover_n"},
	}
	var out []Series
	for _, m := range ms {
		nx, err := distrib.CrossoverN(paperScenario(1, m))
		if err != nil {
			return nil, err
		}
		cross.Rows = append(cross.Rows, []float64{float64(m), float64(nx)})
		s := Series{
			Name: fmt.Sprintf("Fig15 PSR m=%d", m),
			Cols: []string{"n_publishers", "capacity_msgs_per_s"},
		}
		for _, n := range nGrid {
			c, err := distrib.PSRCapacity(paperScenario(n, m))
			if err != nil {
				return nil, err
			}
			s.Rows = append(s.Rows, []float64{float64(n), c})
		}
		out = append(out, s)
	}
	ssr := Series{
		Name: "Fig15 SSR (independent of n and m)",
		Cols: []string{"n_publishers", "capacity_msgs_per_s"},
	}
	ssrCap, err := distrib.SSRCapacity(paperScenario(1, 1))
	if err != nil {
		return nil, err
	}
	for _, n := range nGrid {
		ssr.Rows = append(ssr.Rows, []float64{float64(n), ssrCap})
	}
	return append(out, ssr, cross), nil
}
