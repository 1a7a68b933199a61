// Package stats holds the benchmark's own arithmetic: order statistics
// that match Python's statistics module (so the numbers this benchmark
// prints agree with any external re-analysis of its output), the
// nearest-rank tail percentile with its "at least ten samples beyond"
// rule, the α/β least-squares fit of a message-time model, and the
// win-rate verdict used to compare two revisions.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (the mean of the two middle values
// for an even count), NaN when xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method. With fewer than two values every
// quartile is that value (NaN when empty).
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and
// the number of samples that lie beyond it.
func Percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	r := rankOf(len(s), q)
	return s[r-1], len(s) - r
}

// MinBeyond is how many samples must lie beyond a reported tail
// percentile for it to be trusted.
const MinBeyond = 10

// SamplesFor returns the smallest sample count at which the
// nearest-rank q-quantile has at least MinBeyond samples beyond it.
func SamplesFor(q float64) int {
	for n := MinBeyond + 1; ; n++ {
		if n-rankOf(n, q) >= MinBeyond {
			return n
		}
	}
}

// HighestPercentile returns the highest quantile of n samples that
// still has MinBeyond samples beyond it under the nearest-rank rule:
// (n − MinBeyond)/n. ok is false when n ≤ MinBeyond.
func HighestPercentile(n int) (q float64, ok bool) {
	if n <= MinBeyond {
		return 0, false
	}
	return float64(n-MinBeyond) / float64(n), true
}

// FitAlphaBeta fits t = α + β·x by ordinary least squares — x message
// bytes and t one-way times — returning the intercept α (per-message
// latency) and slope β (time per byte). It needs at least two distinct
// x values.
func FitAlphaBeta(x, t []float64) (alpha, beta float64, err error) {
	if len(x) != len(t) {
		return 0, 0, fmt.Errorf("stats: %d sizes but %d times", len(x), len(t))
	}
	n := float64(len(x))
	var sx, st, sxx, sxt float64
	for i := range x {
		sx += x[i]
		st += t[i]
		sxx += x[i] * x[i]
		sxt += x[i] * t[i]
	}
	den := n*sxx - sx*sx
	if len(x) < 2 || den <= 0 {
		return 0, 0, fmt.Errorf("stats: α/β fit needs two distinct sizes")
	}
	beta = (n*sxt - sx*st) / den
	alpha = (st - beta*sx) / n
	return alpha, beta, nil
}

// Verdict outcomes of Compare.
const (
	Gain       = "gain"
	NoWorse    = "no-worse"
	Regression = "regression"
	Unresolved = "unresolved"
)

// Comparison is the paired comparison of one metric on one workload
// between a parent revision and a change.
type Comparison struct {
	WinFrac            float64 // share of pairs the change won; ties count as not won
	ParentMed          float64
	ParentQ1, ParentQ3 float64
	ChangeMed          float64
	ChangeQ1, ChangeQ3 float64
	// Worse is how much worse the change's median is than the parent's,
	// as a share of the parent's median (negative when better).
	Worse   float64
	Verdict string
}

// Compare pairs parent[i] with change[i] (runs made back to back with
// the same settings) and applies the benchmark's rules:
//
//   - gain: the change wins at least nine tenths of all pairs, and its
//     median is better than the parent's by more than the parent's own
//     spread (the distance between its quartiles);
//   - regression: the change's median is worse than the parent's by more
//     than bound (a share of the parent's median);
//   - unresolved: the parent's own spread exceeds bound, so "no worse"
//     cannot be shown — unless every change run beats every parent run;
//   - no-worse: otherwise.
func Compare(parent, change []float64, lowerIsBetter bool, bound float64) (Comparison, error) {
	if len(parent) != len(change) || len(parent) == 0 {
		return Comparison{}, fmt.Errorf("stats: need equal, non-empty run lists (got %d and %d)", len(parent), len(change))
	}
	better := func(a, b float64) bool { // a better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	var c Comparison
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	c.WinFrac = float64(wins) / float64(len(parent))
	c.ParentQ1, c.ParentMed, c.ParentQ3 = Quartiles(parent)
	c.ChangeQ1, c.ChangeMed, c.ChangeQ3 = Quartiles(change)
	c.ParentMed, c.ChangeMed = Median(parent), Median(change)
	if c.ParentMed != 0 {
		c.Worse = (c.ChangeMed - c.ParentMed) / math.Abs(c.ParentMed)
		if !lowerIsBetter {
			c.Worse = -c.Worse
		}
	}
	spread := math.Abs(c.ParentQ3 - c.ParentQ1)
	allBetter := true
	for _, ch := range change {
		for _, pa := range parent {
			if !better(ch, pa) {
				allBetter = false
			}
		}
	}
	switch {
	case c.WinFrac >= 0.9 && better(c.ChangeMed, c.ParentMed) && math.Abs(c.ChangeMed-c.ParentMed) > spread:
		c.Verdict = Gain
	case c.Worse > bound:
		c.Verdict = Regression
	case c.ParentMed != 0 && spread/math.Abs(c.ParentMed) > bound && !allBetter:
		c.Verdict = Unresolved
	default:
		c.Verdict = NoWorse
	}
	return c, nil
}
