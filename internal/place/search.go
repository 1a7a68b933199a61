package place

import (
	"math"
	"math/rand"
)

// Searcher is one placement-search strategy: given an evaluator and a
// seed it returns a full slot permutation (rank → slot). Searchers are
// deterministic under a fixed seed.
type Searcher interface {
	Name() string
	Search(ev *Evaluator, seed uint64) []int
}

// Searchers returns the standard searcher set in evaluation order:
// the greedy constructor and the annealing refiner (seeded from
// greedy).
func Searchers() []Searcher {
	return []Searcher{Greedy{}, Anneal{}}
}

// refine runs deterministic best-improvement local search on perm:
// full sweeps over every rank pair, applying the single best improving
// swap per pair visit, until a sweep finds no improvement. With the
// O(deg) incremental delta this is cheap even at 1k ranks, and it
// leaves every searcher's answer at a pairwise-swap local optimum —
// the standard finishing move of QAP heuristics. Returns the summed
// improvement (≤ 0).
func refine(ev *Evaluator, perm []int) float64 {
	n := ev.ranks
	var total float64
	for improved := true; improved; {
		improved = false
		for a := 0; a < n-1; a++ {
			for b := a + 1; b < n; b++ {
				if d := ev.SwapDelta(perm, a, b); d < -1e-12 {
					Swap(perm, nil, a, b)
					total += d
					improved = true
				}
			}
		}
	}
	return total
}

// Greedy is the constructive seed: edges in descending traffic order,
// each unplaced endpoint dropped onto the free slot nearest its
// already-placed partner (the first edge anchors at slot 0 — every
// torus slot is equivalent by symmetry). Leftover ranks fill leftover
// slots in index order. Deterministic; the seed is unused.
type Greedy struct{}

// Name implements Searcher.
func (Greedy) Name() string { return "greedy" }

// Search implements Searcher.
func (Greedy) Search(ev *Evaluator, _ uint64) []int {
	perm := make([]int, ev.ranks)
	for i := range perm {
		perm[i] = -1
	}
	used := make([]bool, ev.ranks)
	// nearestFree returns the free slot with the fewest hops to slot
	// s, ties broken by slot index.
	nearestFree := func(s int) int {
		best, bestH := -1, int32(math.MaxInt32)
		for t := 0; t < ev.ranks; t++ {
			if used[t] {
				continue
			}
			if h := ev.slotHops(s, t); h < bestH {
				best, bestH = t, h
			}
		}
		return best
	}
	place := func(r, s int) {
		perm[r] = s
		used[s] = true
	}
	for _, e := range ev.sortedEdges() {
		pa, pb := perm[e.a] >= 0, perm[e.b] >= 0
		switch {
		case pa && pb:
			continue
		case !pa && !pb:
			// Anchor the heavier component first: put a on the first
			// free slot, b as close to it as possible.
			s := 0
			for used[s] {
				s++
			}
			place(e.a, s)
			place(e.b, nearestFree(s))
		case pa:
			place(e.b, nearestFree(perm[e.a]))
		default:
			place(e.a, nearestFree(perm[e.b]))
		}
	}
	next := 0
	for r := range perm {
		if perm[r] >= 0 {
			continue
		}
		for used[next] {
			next++
		}
		place(r, next)
	}
	refine(ev, perm)
	return perm
}

// Anneal is the simulated-annealing refiner: each restart proposes
// random slot swaps, accepting improvements always and regressions
// with the Metropolis probability under a geometrically cooling
// temperature, then polishes its best state with local search. The
// first restart starts from the greedy constructor, later ones from
// random permutations — diversity matters more than schedule length
// on torus-placement landscapes. The temperature scale is set
// relative to the starting cost so the schedule transfers across
// matrix magnitudes.
type Anneal struct {
	// Iters is the number of proposed swaps per restart (default
	// 15000·ranks, capped at 1M).
	Iters int
	// Restarts is the number of independent annealing runs; the best
	// final state wins (default 4).
	Restarts int
	// T0Frac and T1Frac set the initial and final temperatures as
	// fractions of the per-edge mean cost (defaults 2.0 and 0.01).
	T0Frac float64
	// T1Frac see T0Frac.
	T1Frac float64
}

// Name implements Searcher.
func (Anneal) Name() string { return "anneal" }

// withDefaults fills zero fields for a given problem size.
func (o Anneal) withDefaults(ev *Evaluator) Anneal {
	if o.Iters == 0 {
		o.Iters = 15000 * ev.ranks
		if o.Iters > 1_000_000 {
			o.Iters = 1_000_000
		}
	}
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	if o.T0Frac == 0 {
		o.T0Frac = 2.0
	}
	if o.T1Frac == 0 {
		o.T1Frac = 0.01
	}
	return o
}

// Search implements Searcher.
func (o Anneal) Search(ev *Evaluator, seed uint64) []int {
	o = o.withDefaults(ev)
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	n := ev.ranks

	var globalBest []int
	globalCost := math.Inf(1)
	for restart := 0; restart < o.Restarts; restart++ {
		var perm []int
		kicked := false
		switch {
		case restart == 0:
			perm = Greedy{}.Search(ev, seed)
		case restart%2 == 1:
			// Iterated local search: kick the incumbent with n/4 random
			// swaps and re-anneal at reduced temperature, so half the
			// restarts exploit the best basin found so far.
			perm = append([]int(nil), globalBest...)
			for k := 0; k < n/4+1; k++ {
				a, b := rng.Intn(n), rng.Intn(n)
				perm[a], perm[b] = perm[b], perm[a]
			}
			kicked = true
		default:
			perm = rng.Perm(n)
		}
		inv := Inverse(perm)
		cur := ev.Cost(perm)
		best := append([]int(nil), perm...)
		bestCost := cur

		// Temperature relative to the mean per-edge cost of the start
		// point; a costless matrix has nothing to anneal.
		unit := cur / float64(maxInt(1, ev.Edges()))
		if unit > 0 {
			t0, t1 := o.T0Frac*unit, o.T1Frac*unit
			if kicked {
				t0 /= 4
			}
			cool := math.Pow(t1/t0, 1/float64(maxInt(1, o.Iters-1)))
			temp := t0
			for it := 0; it < o.Iters; it++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					d := ev.SwapDelta(perm, a, b)
					if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
						cur += d
						Swap(perm, inv, a, b)
						if cur < bestCost {
							bestCost = cur
							copy(best, perm)
						}
					}
				}
				temp *= cool
			}
		}
		bestCost += refine(ev, best)
		if bestCost < globalCost {
			globalCost = bestCost
			globalBest = best
		}
	}
	return globalBest
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
