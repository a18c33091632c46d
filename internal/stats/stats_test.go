package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMOPS(t *testing.T) {
	if MOPS(5_500_000, 1e9) != 5.5 {
		t.Fatalf("MOPS = %v", MOPS(5_500_000, 1e9))
	}
	if MOPS(100, 0) != 0 {
		t.Fatal("zero window")
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Label: "jakiro"}
	s.Add(1, 5.5)
	s.Add(2, 5.4)
	if s.At(1) != 5.5 {
		t.Fatal("At")
	}
	if !math.IsNaN(s.At(99)) {
		t.Fatal("At missing")
	}
	if s.PeakY() != 5.5 {
		t.Fatal("PeakY")
	}
	empty := &Series{}
	if !math.IsNaN(empty.PeakY()) {
		t.Fatal("empty PeakY")
	}
}

func TestTableRendering(t *testing.T) {
	a := &Series{Label: "in-bound", XLabel: "threads"}
	b := &Series{Label: "out-bound"}
	a.Add(1, 11.26)
	a.Add(2, 11.26)
	b.Add(1, 2.11)
	out := Table("fig3", a, b)
	for _, want := range []string{"# fig3", "threads", "in-bound", "out-bound", "11.26", "2.11"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	// Second series shorter than first: renders '-'.
	if !strings.Contains(out, "-") {
		t.Fatal("missing placeholder for short series")
	}
}

func TestChartRendersSeries(t *testing.T) {
	a := &Series{Label: "jakiro", XLabel: "threads", YLabel: "MOPS"}
	b := &Series{Label: "reply"}
	for i := 1; i <= 8; i++ {
		a.Add(float64(i), 5.5)
		b.Add(float64(i), 2.1)
	}
	out := Chart("fig12", 40, 8, a, b)
	for _, want := range []string{"# fig12", "* jakiro", "o reply", "threads", "5.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// The constant-5.5 series must sit on the top row, 2.1 lower down.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "*") {
		t.Fatalf("peak series not on top row:\n%s", out)
	}
	if strings.Contains(lines[1], "o") {
		t.Fatalf("lower series rendered at the top:\n%s", out)
	}
}

func TestChartEmptyAndDegenerate(t *testing.T) {
	if !strings.Contains(Chart("none", 40, 8), "(no data)") {
		t.Fatal("empty chart")
	}
	s := &Series{Label: "zero"}
	s.Add(1, 0)
	if !strings.Contains(Chart("zeros", 40, 8, s), "(no data)") {
		t.Fatal("all-zero chart should degrade gracefully")
	}
	one := &Series{Label: "one"}
	one.Add(5, 3.3)
	out := Chart("single", 2, 2, one) // exercises clamping
	if !strings.Contains(out, "one") {
		t.Fatal("single-point chart")
	}
}
