package stats

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestGeomean(t *testing.T) {
	got, err := Geomean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	bad := []struct {
		name    string
		xs      []float64
		wantErr error
	}{
		{"empty", nil, ErrEmpty},
		{"zero value", []float64{1, 0}, ErrNonPositive},
		{"negative", []float64{-1}, ErrNonPositive},
		{"nan", []float64{math.NaN()}, ErrNonPositive},
		{"inf", []float64{math.Inf(1)}, ErrNonPositive},
	}
	for _, tc := range bad {
		if _, err := Geomean(tc.xs); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("mean = %v", got)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("empty: want error")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value", "prob")
	tb.AddRow("libq", 0.787, 1.8e-9)
	tb.AddRow("a-very-long-name", 123.456, 42)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Errorf("header/sep missing:\n%s", out)
	}
	if !strings.Contains(out, "0.787") {
		t.Errorf("small float formatting:\n%s", out)
	}
	if !strings.Contains(out, "1.80e-09") {
		t.Errorf("scientific formatting:\n%s", out)
	}
	if !strings.Contains(out, "123.5") {
		t.Errorf("fixed formatting:\n%s", out)
	}
	// Columns align: all lines equally padded per column widths.
	if len(lines[0]) == 0 {
		t.Error("empty header line")
	}
}

func TestFormatZero(t *testing.T) {
	tb := NewTable("v")
	tb.AddRow(0.0)
	if !strings.Contains(tb.String(), "0") {
		t.Error("zero formatting")
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart(20)
	c.SetReference(1.0)
	c.Add("libq", "SECDED", 0.99)
	c.Add("libq", "ECC-6", 0.78)
	c.Add("lbm", "ECC-6", 0.76)
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d\n%s", len(lines), out)
	}
	// Repeated label collapses for visual grouping.
	if !strings.HasPrefix(lines[1], "    ") {
		t.Errorf("second series should hide the label:\n%s", out)
	}
	// Longer value -> more #.
	c0 := strings.Count(lines[0], "#")
	c1 := strings.Count(lines[1], "#")
	if c0 <= c1 {
		t.Errorf("bar lengths not ordered: %d vs %d", c0, c1)
	}
	// Reference marker present.
	if !strings.Contains(out, "|") {
		t.Error("no reference marker")
	}
	// Degenerate charts do not panic.
	if NewBarChart(0).String() != "" {
		t.Error("empty chart should render empty")
	}
	d := NewBarChart(10)
	d.Add("x", "", -5)
	if !strings.Contains(d.String(), "0.000") {
		t.Error("negative values clamp to zero")
	}
}
