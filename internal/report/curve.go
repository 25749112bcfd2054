package report

import (
	"fmt"
	"io"
	"math"
)

// Curve renders named series over a shared integer axis — the
// register-sensitivity shape: one row per axis value, one column per
// series — as an aligned table, CSV, or ASCII chart. It is the generic
// renderer behind `ncdrf curve`; the experiment layer decides what the
// series mean (fit %, spill ops, relative performance).
type Curve struct {
	Title   string
	XHeader string // axis column header, e.g. "regs"
	Xs      []int
	Series  []CurveSeries
	// Format renders one cell; F2 when nil. NaN values render as "-"
	// regardless (a missing point, e.g. an all-failed cell).
	Format func(float64) string
}

// CurveSeries is one named column/line of a Curve.
type CurveSeries struct {
	Name string
	// Marker is the chart glyph; the first byte of Name when 0.
	Marker byte
	// Values holds one value per Curve.Xs entry.
	Values []float64
}

func (c *Curve) check() error {
	if len(c.Xs) == 0 {
		return fmt.Errorf("report: curve %q has an empty axis", c.Title)
	}
	if len(c.Series) == 0 {
		return fmt.Errorf("report: curve %q has no series", c.Title)
	}
	for _, s := range c.Series {
		if len(s.Values) != len(c.Xs) {
			return fmt.Errorf("report: curve %q series %q has %d values for %d axis points",
				c.Title, s.Name, len(s.Values), len(c.Xs))
		}
	}
	return nil
}

func (c *Curve) cell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if c.Format != nil {
		return c.Format(v)
	}
	return F2(v)
}

// Table lays the curve out with the axis as the first column.
func (c *Curve) Table() (*Table, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	xh := c.XHeader
	if xh == "" {
		xh = "x"
	}
	tb := &Table{Title: c.Title, Headers: []string{xh}}
	for _, s := range c.Series {
		tb.Headers = append(tb.Headers, s.Name)
	}
	for i, x := range c.Xs {
		row := []string{fmt.Sprintf("%d", x)}
		for _, s := range c.Series {
			row = append(row, c.cell(s.Values[i]))
		}
		tb.Add(row...)
	}
	return tb, nil
}

// Render writes the aligned-table form.
func (c *Curve) Render(w io.Writer) error {
	tb, err := c.Table()
	if err != nil {
		return err
	}
	return tb.Render(w)
}

// CSV writes the table form as CSV.
func (c *Curve) CSV(w io.Writer) error {
	tb, err := c.Table()
	if err != nil {
		return err
	}
	return tb.CSV(w)
}

// RenderChart draws the curve as an ASCII line chart. The chart's Y
// axis is 0..100, so values should be percentages. The plot is
// positional (all series share the curve's axis), so a NaN point is
// drawn at the floor rather than shifting the series.
func (c *Curve) RenderChart(w io.Writer) error {
	if err := c.check(); err != nil {
		return err
	}
	chart := &Chart{Title: c.Title, XLabel: c.XHeader}
	for _, s := range c.Series {
		marker := s.Marker
		if marker == 0 && s.Name != "" {
			marker = s.Name[0]
		}
		ys := make([]float64, len(s.Values))
		for i, v := range s.Values {
			if math.IsNaN(v) {
				v = 0
			}
			ys[i] = v
		}
		if err := chart.AddSeries(s.Name, marker, c.Xs, ys); err != nil {
			return err
		}
	}
	return chart.Render(w)
}

// Int formats a float that carries an integer count.
func Int(v float64) string { return fmt.Sprintf("%.0f", v) }
