package fit

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// paperGrid is the paper's experiment grid: n additional non-matching
// filters and replication grade R.
func paperGrid() (ns []int, rs []int) {
	return []int{5, 10, 20, 40, 80, 160}, []int{1, 2, 5, 10, 20, 40}
}

func syntheticObs(model core.CostModel, noise float64, seed int64) []Observation {
	ns, rs := paperGrid()
	g := stats.NewRNG(seed)
	var obs []Observation
	for _, n := range ns {
		for _, r := range rs {
			nFltr := n + r // the paper installs n + R filters in total
			st := model.MeanServiceTime(nFltr, float64(r))
			if noise > 0 {
				st *= 1 + noise*(2*g.Float64()-1)
			}
			obs = append(obs, Observation{NFltr: nFltr, R: float64(r), ServiceTime: st})
		}
	}
	return obs
}

func TestFitRecoversExactModel(t *testing.T) {
	want := core.TableICorrelationID
	res, err := Fit(syntheticObs(want, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Model.TRcv-want.TRcv)/want.TRcv > 1e-9 {
		t.Errorf("TRcv = %g, want %g", res.Model.TRcv, want.TRcv)
	}
	if math.Abs(res.Model.TFltr-want.TFltr)/want.TFltr > 1e-9 {
		t.Errorf("TFltr = %g, want %g", res.Model.TFltr, want.TFltr)
	}
	if math.Abs(res.Model.TTx-want.TTx)/want.TTx > 1e-9 {
		t.Errorf("TTx = %g, want %g", res.Model.TTx, want.TTx)
	}
	if res.R2 < 1-1e-12 {
		t.Errorf("R2 = %v, want 1 for noiseless data", res.R2)
	}
	if res.RMSE > 1e-15 {
		t.Errorf("RMSE = %g for noiseless data", res.RMSE)
	}
}

func TestFitUnderNoise(t *testing.T) {
	// With 2% multiplicative noise the recovered constants stay within a
	// few percent — the paper's "model agrees very well" regime.
	want := core.TableIApplicationProperty
	res, err := Fit(syntheticObs(want, 0.02, 7))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Model.TFltr-want.TFltr)/want.TFltr > 0.10 {
		t.Errorf("TFltr = %g, want within 10%% of %g", res.Model.TFltr, want.TFltr)
	}
	if math.Abs(res.Model.TTx-want.TTx)/want.TTx > 0.10 {
		t.Errorf("TTx = %g, want within 10%% of %g", res.Model.TTx, want.TTx)
	}
	if res.R2 < 0.99 {
		t.Errorf("R2 = %v", res.R2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); !errors.Is(err, ErrUnderdetermined) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Fit([]Observation{{NFltr: 1, R: 1, ServiceTime: 1}, {NFltr: 2, R: 1, ServiceTime: 2}}); !errors.Is(err, ErrUnderdetermined) {
		t.Errorf("2 obs err = %v", err)
	}
	// All-identical rows make the design singular.
	same := []Observation{
		{NFltr: 5, R: 1, ServiceTime: 1e-4},
		{NFltr: 5, R: 1, ServiceTime: 1e-4},
		{NFltr: 5, R: 1, ServiceTime: 1e-4},
		{NFltr: 5, R: 1, ServiceTime: 1e-4},
	}
	if _, err := Fit(same); !errors.Is(err, ErrUnderdetermined) {
		t.Errorf("singular err = %v", err)
	}
	bad := []Observation{
		{NFltr: -1, R: 1, ServiceTime: 1},
		{NFltr: 1, R: 1, ServiceTime: 1},
		{NFltr: 2, R: 1, ServiceTime: 1},
	}
	if _, err := Fit(bad); !errors.Is(err, ErrBadObservation) {
		t.Errorf("bad obs err = %v", err)
	}
	badST := []Observation{
		{NFltr: 1, R: 1, ServiceTime: 0},
		{NFltr: 1, R: 1, ServiceTime: 1},
		{NFltr: 2, R: 1, ServiceTime: 1},
	}
	if _, err := Fit(badST); !errors.Is(err, ErrBadObservation) {
		t.Errorf("zero service time err = %v", err)
	}
}

func TestFitThroughputRoundTrip(t *testing.T) {
	// End-to-end: generate throughputs from Table I, invert, fit, verify
	// the predicted throughput curve matches (the Fig. 4 validation loop).
	model := core.TableICorrelationID
	ns, rs := paperGrid()
	var obs []Observation
	for _, n := range ns {
		for _, r := range rs {
			nFltr := n + r
			recv, _, _ := model.Throughput(nFltr, float64(r))
			obs = append(obs, Observation{NFltr: nFltr, R: float64(r), ServiceTime: 1 / recv})
		}
	}
	res, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		for _, r := range rs {
			nFltr := n + r
			wantRecv, _, _ := model.Throughput(nFltr, float64(r))
			gotRecv, _, _ := res.Model.Throughput(nFltr, float64(r))
			if math.Abs(gotRecv-wantRecv)/wantRecv > 1e-9 {
				t.Errorf("n=%d R=%d: throughput %g, want %g", nFltr, r, gotRecv, wantRecv)
			}
		}
	}
}
