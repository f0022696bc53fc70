// Package bench is the experiment harness of the reproduction: it
// regenerates every data table and figure of the paper's evaluation, either
// from the calibrated cost model (the paper's Table I constants driving the
// virtual-time simulator) or from native measurements of this repository's
// own broker (the jmsbench path that re-derives Table I on the local
// machine).
package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ErrBench is returned for invalid harness parameters.
var ErrBench = errors.New("bench: invalid parameters")

// Series is one plottable data series: named columns and numeric rows, the
// unit every figure generator produces.
type Series struct {
	// Name identifies the series (e.g. "R=5" or "corrID E[R]=10").
	Name string
	// Cols are the column headers; Cols[0] is the x axis.
	Cols []string
	// Rows are the data points.
	Rows [][]float64
}

// Append adds a row, which must match the column count.
func (s *Series) Append(row ...float64) error {
	if len(row) != len(s.Cols) {
		return fmt.Errorf("%w: row width %d, want %d", ErrBench, len(row), len(s.Cols))
	}
	s.Rows = append(s.Rows, row)
	return nil
}

// WriteCSV writes the series as CSV with a comment header naming it.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", s.Name); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(s.Cols, ",")); err != nil {
		return err
	}
	for _, row := range s.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = strconv.FormatFloat(v, 'g', 8, 64)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}

// String renders the series as an aligned text table.
func (s *Series) String() string {
	var sb strings.Builder
	sb.WriteString("# " + s.Name + "\n")
	const colWidth = 14
	for _, c := range s.Cols {
		fmt.Fprintf(&sb, "%*s", colWidth, c)
	}
	sb.WriteByte('\n')
	for _, row := range s.Rows {
		for _, v := range row {
			fmt.Fprintf(&sb, "%*s", colWidth, strconv.FormatFloat(v, 'g', 6, 64))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// WriteAll writes several series to w, blank-line separated.
func WriteAll(w io.Writer, series []Series) error {
	for i := range series {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := series[i].WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// LogSpaceInts returns a roughly log-spaced set of integers in [lo, hi],
// deduplicated and ascending — the x axes of the paper's log-log figures.
func LogSpaceInts(lo, hi, pointsPerDecade int) ([]int, error) {
	if lo < 1 || hi < lo || pointsPerDecade < 1 {
		return nil, fmt.Errorf("%w: LogSpaceInts(%d, %d, %d)", ErrBench, lo, hi, pointsPerDecade)
	}
	var out []int
	factor := math.Pow(10, 1.0/float64(pointsPerDecade))
	for x := float64(lo); x <= float64(hi)*1.0000001; x *= factor {
		v := int(x + 0.5)
		if v > hi {
			break
		}
		// x only grows, so a rounded duplicate is always the last value.
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	if len(out) == 0 || out[len(out)-1] != hi {
		out = append(out, hi)
	}
	return out, nil
}
