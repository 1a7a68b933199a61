package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins Quartiles and Median to the values
// Python's statistics.quantiles(xs, n=4) and statistics.median return,
// the arithmetic any re-analysis of the benchmark output uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4, 1.0, 7.7, 6.6, 5.5, 8.8, 0.1}, 1.0, 4.4, 7.7, 4.4},
		{[]float64{2, 4}, 1.5, 3.0, 4.5, 3.0},
		{[]float64{5, 1, 3}, 1.0, 3.0, 5.0, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := Median(c.xs); !near(m, c.med) {
			t.Errorf("Median(%v) = %v, want %v", c.xs, m, c.med)
		}
	}
}

// TestPercentileTail checks the nearest-rank percentile and the rule
// that a reported tail percentile keeps at least ten samples beyond it.
func TestPercentileTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	v, beyond := Percentile(xs, 0.90)
	if v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if n := SamplesFor(0.90); n != 100 {
		t.Errorf("SamplesFor(0.90) = %d, want 100", n)
	}
	if n := SamplesFor(0.99); n != 1000 {
		t.Errorf("SamplesFor(0.99) = %d, want 1000", n)
	}
	q, ok := HighestPercentile(250)
	if !ok || !near(q, 0.96) {
		t.Errorf("HighestPercentile(250) = %v %v, want 0.96", q, ok)
	}
	ys := make([]float64, 250)
	for i := range ys {
		ys[i] = float64(i + 1)
	}
	if v, beyond := Percentile(ys, q); v != 240 || beyond != MinBeyond {
		t.Errorf("p96 of 1..250 = %v with %d beyond, want 240 with %d", v, beyond, MinBeyond)
	}
	if _, ok := HighestPercentile(MinBeyond); ok {
		t.Errorf("HighestPercentile(%d) should not exist", MinBeyond)
	}
}

// TestFitAlphaBeta recovers a known latency and per-byte cost, exactly
// on clean data and closely on symmetric noise.
func TestFitAlphaBeta(t *testing.T) {
	x := []float64{52, 1664, 3328, 13312, 53248}
	clean := make([]float64, len(x))
	noisy := make([]float64, len(x))
	for i, b := range x {
		clean[i] = 2e-6 + 0.5e-9*b
		noisy[i] = clean[i] * (1 + 0.01*float64(1-2*(i%2)))
	}
	a, b, err := FitAlphaBeta(x, clean)
	if err != nil || !near(a, 2e-6) || !near(b, 0.5e-9) {
		t.Errorf("clean fit = %g, %g, %v; want 2e-6, 5e-10", a, b, err)
	}
	_, b, err = FitAlphaBeta(x, noisy)
	if err != nil || math.Abs(b-0.5e-9)/0.5e-9 > 0.05 {
		t.Errorf("noisy fit β = %g, %v; want within 5%% of 5e-10", b, err)
	}
	if _, _, err := FitAlphaBeta([]float64{8, 8}, []float64{1, 2}); err == nil {
		t.Error("fit over one distinct size should fail")
	}
}

// TestCompareVerdict walks the verdict rule through each outcome.
func TestCompareVerdict(t *testing.T) {
	parent := []float64{10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	same := make([]float64, len(parent))
	for i, p := range parent {
		faster[i] = p * 0.8
		slower[i] = p * 1.3
		same[i] = parent[(i+1)%len(parent)]
	}
	check := func(name string, parent, change []float64, lower bool, bound float64, want string) {
		t.Helper()
		c, err := Compare(parent, change, lower, bound)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Verdict != want {
			t.Errorf("%s: verdict %s (win %.2f, worse %.3f), want %s", name, c.Verdict, c.WinFrac, c.Worse, want)
		}
	}
	check("faster", parent, faster, true, 0.1, Gain)
	check("slower", parent, slower, true, 0.1, Regression)
	check("same", parent, same, true, 0.1, NoWorse)
	// Higher-is-better metrics flip the direction.
	check("throughput up", parent, slower, false, 0.1, Gain)
	check("throughput down", parent, faster, false, 0.1, Regression)
	// A parent spread wider than the bound cannot show "no worse".
	wide := []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}
	check("wide", wide, wide, true, 0.1, Unresolved)
	// Wins alone are not a gain when the medians sit within the spread.
	barely := make([]float64, len(wide))
	for i, w := range wide {
		barely[i] = w - 0.01
	}
	check("within spread", wide, barely, true, 0.1, Unresolved)
	c, _ := Compare(wide, barely, true, 0.1)
	if c.WinFrac != 1 {
		t.Errorf("within spread: win fraction %.2f, want 1", c.WinFrac)
	}
	if _, err := Compare(parent, parent[:3], true, 0.1); err == nil {
		t.Error("unequal run lists should fail")
	}
}
