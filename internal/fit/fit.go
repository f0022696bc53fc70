// Package fit recovers the cost-model constants (t_rcv, t_fltr, t_tx) from
// measured service times, the step that produced Table I of the paper: for
// each experiment with n_fltr installed filters and replication grade R,
//
//	E[B] = t_rcv + n_fltr*t_fltr + R*t_tx,
//
// a linear model in the unknowns, solved here by ordinary least squares on
// the normal equations (3x3, solved by Gaussian elimination with partial
// pivoting). E[B] is either the reciprocal of the saturated received
// throughput, as in the paper, or the mean dispatch time read off the
// broker's service-time tape.
package fit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// Errors returned by the fitter.
var (
	// ErrUnderdetermined is returned with fewer than three observations or
	// a singular design.
	ErrUnderdetermined = errors.New("fit: underdetermined system")
	// ErrBadObservation is returned for invalid data points.
	ErrBadObservation = errors.New("fit: invalid observation")
)

// Observation is one measured data point of the parameter study.
type Observation struct {
	// NFltr is the number of installed filters during the run.
	NFltr int
	// R is the replication grade during the run.
	R float64
	// ServiceTime is the measured mean per-message processing time in
	// seconds.
	ServiceTime float64
}

// Result is the fitted model with goodness-of-fit diagnostics.
type Result struct {
	Model core.CostModel
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// RMSE is the root mean squared residual in seconds.
	RMSE float64
	// MaxAbsResidual is the worst-case residual in seconds.
	MaxAbsResidual float64
}

// Fit solves the least-squares problem for the observations.
func Fit(obs []Observation) (Result, error) {
	if len(obs) < 3 {
		return Result{}, fmt.Errorf("%w: %d observations, need >= 3", ErrUnderdetermined, len(obs))
	}
	for i, o := range obs {
		if o.NFltr < 0 || o.R < 0 || o.ServiceTime <= 0 ||
			math.IsNaN(o.ServiceTime) || math.IsInf(o.ServiceTime, 0) {
			return Result{}, fmt.Errorf("%w: index %d: %+v", ErrBadObservation, i, o)
		}
	}

	// Normal equations A^T A x = A^T y with rows (1, n_fltr, R).
	var ata [3][3]float64
	var aty [3]float64
	for _, o := range obs {
		row := [3]float64{1, float64(o.NFltr), o.R}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				ata[i][j] += row[i] * row[j]
			}
			aty[i] += row[i] * o.ServiceTime
		}
	}
	x, err := solve3(ata, aty)
	if err != nil {
		return Result{}, err
	}

	model := core.CostModel{TRcv: x[0], TFltr: x[1], TTx: x[2]}

	// Diagnostics.
	meanY := 0.0
	for _, o := range obs {
		meanY += o.ServiceTime
	}
	meanY /= float64(len(obs))
	var ssRes, ssTot, maxAbs float64
	for _, o := range obs {
		pred := model.MeanServiceTime(o.NFltr, o.R)
		res := o.ServiceTime - pred
		ssRes += res * res
		d := o.ServiceTime - meanY
		ssTot += d * d
		if math.Abs(res) > maxAbs {
			maxAbs = math.Abs(res)
		}
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Result{
		Model:          model,
		R2:             r2,
		RMSE:           math.Sqrt(ssRes / float64(len(obs))),
		MaxAbsResidual: maxAbs,
	}, nil
}

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, error) {
	// Augment.
	var m [3][4]float64
	for i := 0; i < 3; i++ {
		copy(m[i][:3], a[i][:])
		m[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-18 {
			return [3]float64{}, fmt.Errorf("%w: singular design matrix", ErrUnderdetermined)
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < 3; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back-substitute.
	var x [3]float64
	for i := 2; i >= 0; i-- {
		sum := m[i][3]
		for j := i + 1; j < 3; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}
