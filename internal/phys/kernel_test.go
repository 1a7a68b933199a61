package phys

import (
	"fmt"
	"math"
	"testing"
)

// kernelLawGrid enumerates the law space the specialized kernels must
// cover: both potential kinds crossed with open/short/long cutoffs and
// zero/non-zero softening. Cutoff 0.9 on a box of side 3 guarantees a
// mix of interacting and beyond-cutoff pairs.
func kernelLawGrid() []Law {
	var laws []Law
	for _, rc := range []float64{0, 0.9, 2.5} {
		for _, soft := range []float64{0, 1e-3} {
			laws = append(laws,
				Law{Kind: Repulsive, K: 1.3, Softening: soft, Cutoff: rc},
				Law{Kind: LennardJones, Epsilon: 0.7, Sigma: 0.4, Softening: soft, Cutoff: rc},
			)
		}
	}
	return laws
}

// kernelSources builds a source set that exercises every skip branch
// against targets: a full replica (equal IDs, including exactly
// coincident positions), plus disjoint-ID particles.
func kernelSources(targets []Particle, box Box, seed uint64) []Particle {
	sources := append([]Particle(nil), targets...)
	extra := InitUniform(len(targets), box, seed+100)
	for i := range extra {
		extra[i].ID += uint32(len(targets))
	}
	return append(sources, extra...)
}

// seedForces gives every particle a distinct non-trivial accumulator so
// the tests verify accumulation on top of prior forces, not just the
// from-zero sum. One target gets -0 to pin the +0 normalization the
// generic path performs for beyond-cutoff and coincident pairs.
func seedForces(ps []Particle) {
	for i := range ps {
		ps[i].Force.X = 0.25 * float64(i)
		ps[i].Force.Y = -0.125 * float64(i)
	}
	if len(ps) > 0 {
		ps[0].Force.X = math.Copysign(0, -1)
		ps[0].Force.Y = math.Copysign(0, -1)
	}
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// compareForces asserts got and want match bitwise, force for force.
func compareForces(t *testing.T, got, want []Particle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("particle count %d != %d", len(got), len(want))
	}
	for i := range got {
		if !bitsEqual(got[i].Force.X, want[i].Force.X) || !bitsEqual(got[i].Force.Y, want[i].Force.Y) {
			t.Fatalf("particle %d: force (%x, %x) != generic (%x, %x)",
				i,
				math.Float64bits(got[i].Force.X), math.Float64bits(got[i].Force.Y),
				math.Float64bits(want[i].Force.X), math.Float64bits(want[i].Force.Y))
		}
	}
}

// TestKernelMatchesGenericAccumulate verifies the specialized Accumulate
// loops are bitwise-identical to the per-pair generic path across the
// law grid, including counts.
func TestKernelMatchesGenericAccumulate(t *testing.T) {
	box := NewBox(3, 2, Reflective)
	for _, law := range kernelLawGrid() {
		law := law
		t.Run(fmt.Sprintf("%v_rc%g_soft%g", law.Kind, law.Cutoff, law.Softening), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				targets := InitUniform(24, box, seed)
				seedForces(targets)
				sources := kernelSources(targets, box, seed)

				generic := append([]Particle(nil), targets...)
				fast := append([]Particle(nil), targets...)
				kern := law.Kernel()
				ng := law.AccumulateGeneric(generic, sources)
				nf := kern.Accumulate(fast, sources)
				if ng != nf {
					t.Fatalf("seed %d: kernel counted %d evaluations, generic %d", seed, nf, ng)
				}
				compareForces(t, fast, generic)
			}
		})
	}
}

// accumulateInCase is one input shape for
// TestKernelMatchesGenericAccumulateIn: a box, the laws to run on it,
// and a seeded target/source builder.
type accumulateInCase struct {
	name   string
	box    Box
	laws   []Law
	inputs func(seed uint64) (targets, sources []Particle)
}

// accumulateInCases is the input table of
// TestKernelMatchesGenericAccumulateIn. Per boundary and dimension it
// holds the replica-plus-extras set (an even source count) and the same
// set one source short, so the repulsive loops' 2-wide unroll leaves a
// remainder lane. The last case is the CA cutoff loop's hot shape:
// the paper's 1D periodic r_c = L/4 geometry with four teams, team 0's
// particles against its ±1-team window (teams 3, 0 and 1), where about
// two thirds of the counted pairs survive the cutoff. A distinct-ID
// clone of one target pins the coincident-pair zero add.
func accumulateInCases() []accumulateInCase {
	var cases []accumulateInCase
	for _, boundary := range []Boundary{Reflective, Periodic} {
		for _, dim := range []int{1, 2} {
			box := NewBox(3, dim, boundary)
			name := fmt.Sprintf("%v_%d", boundary, dim)
			cases = append(cases,
				accumulateInCase{name, box, kernelLawGrid(), func(seed uint64) ([]Particle, []Particle) {
					targets := InitUniform(24, box, seed)
					return targets, kernelSources(targets, box, seed)
				}},
				accumulateInCase{name + "_odd", box, kernelLawGrid(), func(seed uint64) ([]Particle, []Particle) {
					targets := InitUniform(23, box, seed)
					sources := kernelSources(targets, box, seed)
					return targets, sources[:len(sources)-1]
				}},
			)
		}
	}
	box := NewBox(8, 1, Periodic)
	rc := box.L / 4
	window := []Law{
		DefaultLaw().WithCutoff(rc),
		{Kind: Repulsive, K: 1.3, Cutoff: rc}, // zero softening
		LJLaw(0.7, 0.4).WithCutoff(rc),
		{Kind: LennardJones, Epsilon: 0.7, Sigma: 0.4, Cutoff: rc},
	}
	cases = append(cases, accumulateInCase{"window_periodic_1", box, window, func(seed uint64) ([]Particle, []Particle) {
		var targets, sources []Particle
		for _, p := range InitUniform(97, box, seed) {
			switch team := int(p.Pos.X / rc); team {
			case 0:
				targets = append(targets, p)
				sources = append(sources, p)
			case 1, 3:
				sources = append(sources, p)
			}
		}
		clone := targets[0]
		clone.ID = 1000
		return targets, append(sources, clone)
	}})
	return cases
}

// TestKernelMatchesGenericAccumulateIn does the same for the box-metric
// variant, across boundary conditions, dimensions and the input shapes
// of accumulateInCases.
func TestKernelMatchesGenericAccumulateIn(t *testing.T) {
	for _, c := range accumulateInCases() {
		for _, law := range c.laws {
			c, law := c, law
			t.Run(fmt.Sprintf("%s/%v_rc%g_soft%g", c.name, law.Kind, law.Cutoff, law.Softening), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					targets, sources := c.inputs(seed)
					seedForces(targets)

					generic := append([]Particle(nil), targets...)
					fast := append([]Particle(nil), targets...)
					kern := law.Kernel()
					ng := law.AccumulateInGeneric(generic, sources, c.box)
					nf := kern.AccumulateIn(fast, sources, c.box)
					if ng != nf {
						t.Fatalf("seed %d: kernel counted %d evaluations, generic %d", seed, nf, ng)
					}
					compareForces(t, fast, generic)
				}
			})
		}
	}
}

// TestKernelUnknownKindFallsBackToRepulsive pins the dispatch default:
// an unrecognized potential kind must behave exactly like pairVec's
// default case (repulsive), not crash or zero out.
func TestKernelUnknownKindFallsBackToRepulsive(t *testing.T) {
	box := NewBox(3, 2, Reflective)
	weird := Law{Kind: Potential(97), K: 2.1, Softening: 1e-3, Cutoff: 0.9}
	targets := InitUniform(16, box, 4)
	sources := kernelSources(targets, box, 4)

	generic := append([]Particle(nil), targets...)
	fast := append([]Particle(nil), targets...)
	kern := weird.Kernel()
	ng := weird.AccumulateGeneric(generic, sources)
	nf := kern.Accumulate(fast, sources)
	if ng != nf {
		t.Fatalf("kernel counted %d evaluations, generic %d", nf, ng)
	}
	compareForces(t, fast, generic)
}

// TestCellListForcesMatchesGeneric verifies the specialized cell-list
// loops against the per-pair reference across kinds, boundaries and
// dimensions.
func TestCellListForcesMatchesGeneric(t *testing.T) {
	for _, boundary := range []Boundary{Reflective, Periodic} {
		for _, dim := range []int{1, 2} {
			box := NewBox(4, dim, boundary)
			laws := []Law{
				DefaultLaw().WithCutoff(0.9),
				{Kind: Repulsive, K: 1.3, Cutoff: 1.1}, // zero softening
				LJLaw(0.7, 0.4).WithCutoff(0.9),
				{Kind: LennardJones, Epsilon: 0.7, Sigma: 0.4, Cutoff: 1.1},
			}
			for _, law := range laws {
				law, box := law, box
				t.Run(fmt.Sprintf("%v_%d/%v_rc%g_soft%g", boundary, dim, law.Kind, law.Cutoff, law.Softening), func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						ps := InitUniform(40, box, seed)
						cl := NewCellList(ps, law.Cutoff, box)

						generic := append([]Particle(nil), ps...)
						fast := append([]Particle(nil), ps...)
						cl.ForcesGeneric(generic, law)
						cl.Forces(fast, law)
						compareForces(t, fast, generic)
					}
				})
			}
		}
	}
}

// tileGrid is the block widths the tile-invariance tests cut a source
// set or cell range into: degenerate and odd widths that leave every
// unroll remainder, powers of two and their neighbors, and widths at or
// past the whole range.
func tileGrid() []int {
	return []int{1, 2, 3, 5, 7, 8, 31, 32, 33, 64, 1000}
}

// TestKernelTileInvariance pins the property the ring and window loops
// rely on when they fold one received block after another into the
// same team: the kernels accumulate strictly in source order on top of
// the targets' existing forces, so cutting the sources into consecutive
// tiles and calling the kernel once per tile is bitwise-identical to the
// generic reference over the whole set, with the per-tile counts summing
// to its count. Both entry points, across the law grid, boundaries and
// dimensions.
func TestKernelTileInvariance(t *testing.T) {
	for _, boundary := range []Boundary{Reflective, Periodic} {
		for _, dim := range []int{1, 2} {
			box := NewBox(3, dim, boundary)
			for _, law := range kernelLawGrid() {
				law, box := law, box
				t.Run(fmt.Sprintf("%v_%d/%v_rc%g_soft%g", boundary, dim, law.Kind, law.Cutoff, law.Softening), func(t *testing.T) {
					targets := InitUniform(24, box, 1)
					seedForces(targets)
					sources := kernelSources(targets, box, 1)

					generic := append([]Particle(nil), targets...)
					ng := law.AccumulateGeneric(generic, sources)
					genericIn := append([]Particle(nil), targets...)
					ngIn := law.AccumulateInGeneric(genericIn, sources, box)

					kern := law.Kernel()
					for _, tile := range tileGrid() {
						fast := append([]Particle(nil), targets...)
						fastIn := append([]Particle(nil), targets...)
						var nf, nfIn int64
						for lo := 0; lo < len(sources); lo += tile {
							block := sources[lo:min(lo+tile, len(sources))]
							nf += kern.Accumulate(fast, block)
							nfIn += kern.AccumulateIn(fastIn, block, box)
						}
						if nf != ng {
							t.Fatalf("tile %d: Accumulate counted %d, generic %d", tile, nf, ng)
						}
						compareForces(t, fast, generic)
						if nfIn != ngIn {
							t.Fatalf("tile %d: AccumulateIn counted %d, generic %d", tile, nfIn, ngIn)
						}
						compareForces(t, fastIn, genericIn)
					}
				})
			}
		}
	}
}

// TestCellListTileInvariance does the same for the cell sweeps: any cut
// of the cell index space into consecutive tiles (the pool uses a few
// of these; the grid covers every width down to one cell) covers each
// particle once and matches the per-pair generic reference bitwise.
func TestCellListTileInvariance(t *testing.T) {
	for _, boundary := range []Boundary{Reflective, Periodic} {
		for _, dim := range []int{1, 2} {
			box := NewBox(4, dim, boundary)
			laws := []Law{
				DefaultLaw().WithCutoff(0.9),
				{Kind: Repulsive, K: 1.3, Cutoff: 1.1}, // zero softening
				LJLaw(0.7, 0.4).WithCutoff(0.9),
			}
			for _, law := range laws {
				law, box := law, box
				t.Run(fmt.Sprintf("%v_%d/%v", boundary, dim, law.Kind), func(t *testing.T) {
					ps := InitUniform(40, box, 2)
					cl := NewCellList(ps, law.Cutoff, box)

					generic := append([]Particle(nil), ps...)
					cl.ForcesGeneric(generic, law)

					kern := law.Kernel()
					for _, tile := range tileGrid() {
						fast := append([]Particle(nil), ps...)
						ClearForces(fast)
						var covered int64
						for lo := 0; lo < len(cl.cells); lo += tile {
							covered += cl.forcesRange(fast, &kern, lo, min(lo+tile, len(cl.cells)))
						}
						if covered != int64(len(ps)) {
							t.Fatalf("tile %d: cell tiles covered %d particles, want %d", tile, covered, len(ps))
						}
						compareForces(t, fast, generic)
					}
				})
			}
		}
	}
}

// TestKernelAllocs guards the fast path's zero-allocation claim: the
// specialized loops, the cell-list walk over a built list, and the
// append-style encode/decode must not touch the heap in steady state.
func TestKernelAllocs(t *testing.T) {
	box := NewBox(3, 2, Periodic)
	law := LJLaw(0.7, 0.4).WithCutoff(0.9)
	kern := law.Kernel()
	targets := InitUniform(32, box, 1)
	sources := kernelSources(targets, box, 1)

	if a := testing.AllocsPerRun(10, func() { kern.Accumulate(targets, sources) }); a != 0 {
		t.Errorf("Kernel.Accumulate allocated %.1f times per run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { kern.AccumulateIn(targets, sources, box) }); a != 0 {
		t.Errorf("Kernel.AccumulateIn allocated %.1f times per run, want 0", a)
	}

	cl := NewCellList(targets, law.Cutoff, box)
	if a := testing.AllocsPerRun(10, func() { cl.Forces(targets, law) }); a != 0 {
		t.Errorf("CellList.Forces allocated %.1f times per run, want 0", a)
	}

	// Encode/decode reuse: after one warm-up grows the buffers, the
	// append-style round trip must be allocation-free.
	var buf []byte
	var scratch []Particle
	roundTrip := func() {
		buf = AppendSlice(buf[:0], targets)
		var err error
		scratch, err = DecodeSliceInto(scratch[:0], buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if a := testing.AllocsPerRun(10, roundTrip); a != 0 {
		t.Errorf("encode/decode round trip allocated %.1f times per run, want 0", a)
	}
}
