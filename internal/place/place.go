// Package place closes the loop between the measured communication
// matrix and the torus machine model: given the src×dst traffic a run
// actually produced (scraped live by internal/obs, or predicted by
// internal/netsim) and a topo.Torus, it searches rank→node placements
// minimizing hop-weighted traffic
//
//	cost(π) = Σ_{s,d} traffic[s][d] · Hops(node(π(s)), node(π(d)))
//
// — the quadratic-assignment objective of topology-aware MPI rank
// mapping (the DCMF/topology-aware-collectives line the paper builds
// on). Two searchers share one Evaluator: a greedy constructor
// (heaviest edge first onto nearest free slots) and a
// simulated-annealing refiner seeded from it. Every
// candidate is validated by replaying the matrix through the
// internal/netsim contention model, so callers can compare the
// hop-cost objective with a predicted makespan that includes link
// contention.
//
// The Evaluator precomputes the node×node hop table and a sparse
// adjacency view of the traffic matrix, so scoring a swap of two
// ranks' slots is an O(deg) incremental delta — allocation-free and,
// for the bounded-degree matrices the cutoff algorithm produces,
// effectively O(1) — instead of an O(p²) recomputation.
package place

import (
	"fmt"
	"sort"

	"repro/internal/topo"
)

// arc is one endpoint's view of an undirected traffic edge: the other
// rank and the combined weight traffic[a][b]+traffic[b][a].
type arc struct {
	other int32
	w     float64
}

// edge is one undirected traffic edge with a < b.
type edge struct {
	a, b int
	w    float64
}

// Evaluator scores placements of a traffic matrix on a torus. A
// placement is a permutation perm of the torus's rank slots:
// perm[r] = s places rank r on slot s (node s / CoresPerNode). When
// the torus hosts more slots than the matrix has ranks, the trailing
// "virtual" ranks carry no traffic and simply occupy the leftover
// slots, so every searcher works on full permutations.
type Evaluator struct {
	ranks int // permutation length = torus rank slots
	p     int // traffic matrix dimension (p ≤ ranks)
	nodes int

	slotNode []int32 // slot → node
	hops     []int32 // nodes×nodes dimension-ordered hop distances

	adj   [][]arc // per-rank incident edges (both endpoints listed)
	edges []edge  // each undirected edge once, a < b
	total float64 // Σ traffic (all directed entries)
}

// NewEvaluator validates that the torus can host the matrix's ranks
// and precomputes the hop table and adjacency lists.
func NewEvaluator(traffic [][]float64, tor topo.Torus) (*Evaluator, error) {
	p := len(traffic)
	if p == 0 {
		return nil, fmt.Errorf("place: empty traffic matrix")
	}
	for i, row := range traffic {
		if len(row) != p {
			return nil, fmt.Errorf("place: traffic row %d has %d columns, want %d", i, len(row), p)
		}
	}
	if tor.Ranks() < p {
		return nil, fmt.Errorf("place: torus %v×%d hosts %d ranks, matrix needs %d",
			tor.Dims, tor.CoresPerNode, tor.Ranks(), p)
	}
	ev := &Evaluator{
		ranks: tor.Ranks(),
		p:     p,
		nodes: tor.Nodes(),
	}
	ev.slotNode = make([]int32, ev.ranks)
	for s := 0; s < ev.ranks; s++ {
		ev.slotNode[s] = int32(tor.NodeOf(s))
	}
	ev.hops = make([]int32, ev.nodes*ev.nodes)
	for a := 0; a < ev.nodes; a++ {
		ax, ay, az := tor.Coord(a)
		for b := 0; b < ev.nodes; b++ {
			bx, by, bz := tor.Coord(b)
			h := absInt(torusDelta(ax, bx, tor.Dims[0])) +
				absInt(torusDelta(ay, by, tor.Dims[1])) +
				absInt(torusDelta(az, bz, tor.Dims[2]))
			ev.hops[a*ev.nodes+b] = int32(h)
		}
	}
	ev.adj = make([][]arc, ev.ranks)
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			w := traffic[a][b] + traffic[b][a]
			if w <= 0 {
				continue
			}
			ev.edges = append(ev.edges, edge{a: a, b: b, w: w})
			ev.adj[a] = append(ev.adj[a], arc{other: int32(b), w: w})
			ev.adj[b] = append(ev.adj[b], arc{other: int32(a), w: w})
		}
		for b := 0; b < p; b++ {
			ev.total += traffic[a][b]
		}
	}
	return ev, nil
}

// torusDelta and absInt mirror the topo package's shortest-ring
// helpers (unexported there); the hop table must match topo.Hops
// exactly, which the evaluator tests pin.
func torusDelta(a, b, n int) int {
	d := ((b-a)%n + n) % n
	if d > n/2 {
		d -= n
	}
	return d
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// Ranks returns the permutation length (the torus's rank slots).
func (ev *Evaluator) Ranks() int { return ev.ranks }

// P returns the traffic matrix dimension.
func (ev *Evaluator) P() int { return ev.p }

// Edges returns the number of distinct communicating rank pairs.
func (ev *Evaluator) Edges() int { return len(ev.edges) }

// TotalBytes returns the total traffic in the matrix (all directed
// entries summed) — the weight a placement multiplies by hop counts.
func (ev *Evaluator) TotalBytes() float64 { return ev.total }

// slotHops returns the hop distance between two rank slots.
func (ev *Evaluator) slotHops(s, t int) int32 {
	return ev.hops[ev.slotNode[s]*int32(ev.nodes)+ev.slotNode[t]]
}

// Identity returns the natural placement: rank r on slot r.
func (ev *Evaluator) Identity() []int {
	perm := make([]int, ev.ranks)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// Cost returns the hop-weighted traffic of a placement:
// Σ_{edges (a,b)} w(a,b) · hops(perm[a], perm[b]).
func (ev *Evaluator) Cost(perm []int) float64 {
	var c float64
	for _, e := range ev.edges {
		c += e.w * float64(ev.slotHops(perm[e.a], perm[e.b]))
	}
	return c
}

// SwapDelta returns Cost(perm with ranks a and b exchanging slots) −
// Cost(perm), in O(deg(a)+deg(b)) without modifying perm and without
// allocating — the inner-loop primitive of every searcher. The a↔b
// edge itself is invariant under the swap (hops are symmetric).
func (ev *Evaluator) SwapDelta(perm []int, a, b int) float64 {
	sa, sb := perm[a], perm[b]
	if sa == sb || a == b {
		return 0
	}
	var d float64
	for _, ar := range ev.adj[a] {
		o := int(ar.other)
		if o == b {
			continue
		}
		so := perm[o]
		d += ar.w * float64(ev.slotHops(sb, so)-ev.slotHops(sa, so))
	}
	for _, ar := range ev.adj[b] {
		o := int(ar.other)
		if o == a {
			continue
		}
		so := perm[o]
		d += ar.w * float64(ev.slotHops(sa, so)-ev.slotHops(sb, so))
	}
	return d
}

// Swap exchanges the slots of ranks a and b in perm and, when inv is
// non-nil, keeps the inverse (slot → rank) mapping consistent.
func Swap(perm, inv []int, a, b int) {
	perm[a], perm[b] = perm[b], perm[a]
	if inv != nil {
		inv[perm[a]] = a
		inv[perm[b]] = b
	}
}

// Inverse returns the slot → rank inverse of perm.
func Inverse(perm []int) []int {
	inv := make([]int, len(perm))
	for r, s := range perm {
		inv[s] = r
	}
	return inv
}

// CheckPerm validates that perm is a permutation of [0, ev.Ranks()).
func (ev *Evaluator) CheckPerm(perm []int) error {
	if len(perm) != ev.ranks {
		return fmt.Errorf("place: permutation length %d, want %d", len(perm), ev.ranks)
	}
	seen := make([]bool, ev.ranks)
	for r, s := range perm {
		if s < 0 || s >= ev.ranks {
			return fmt.Errorf("place: rank %d placed on slot %d outside [0,%d)", r, s, ev.ranks)
		}
		if seen[s] {
			return fmt.Errorf("place: slot %d assigned twice", s)
		}
		seen[s] = true
	}
	return nil
}

// sortedEdges returns the edges by descending weight, ties broken by
// (a, b) ascending so the greedy constructor is deterministic.
func (ev *Evaluator) sortedEdges() []edge {
	es := append([]edge(nil), ev.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].w != es[j].w {
			return es[i].w > es[j].w
		}
		if es[i].a != es[j].a {
			return es[i].a < es[j].a
		}
		return es[i].b < es[j].b
	})
	return es
}

// Apply relabels a rank-indexed traffic matrix into slot space under a
// placement: out[perm[s]][perm[d]] = traffic[s][d], sized to the
// permutation. This is the layer that makes a chosen permutation
// actually reorder the rank→node assignment seen by the machine model
// and the netsim replays, whose NodeOf maps slot indices to nodes in
// natural order.
func Apply(perm []int, traffic [][]float64) [][]float64 {
	out := make([][]float64, len(perm))
	for i := range out {
		out[i] = make([]float64, len(perm))
	}
	for s, row := range traffic {
		for d, w := range row {
			if w != 0 {
				out[perm[s]][perm[d]] = w
			}
		}
	}
	return out
}
