package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Midpoint1D runs the midpoint method on a one-dimensional spatial
// decomposition. See MidpointND.
func Midpoint1D(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	return midpointND(ps, pr, 1)
}

// Midpoint2D runs the midpoint method on a two-dimensional spatial
// decomposition (p must be a perfect square). See MidpointND.
func Midpoint2D(ps []phys.Particle, pr Params) ([]phys.Particle, *trace.Report, error) {
	return midpointND(ps, pr, 2)
}

// midpointND implements the midpoint method (Bowers, Dror, Shaw — the
// neutral-territory variant the paper surveys in Section II-D): each
// processor owns a spatial cell and computes exactly those pair
// interactions whose *midpoint* falls in its cell. Because a particle is
// at most r_c/2 from the pair midpoint, the import region shrinks to
// ⌈r_c/(2w)⌉ cells per side — half that of a plain spatial
// decomposition — at the price of a second communication phase that
// returns force contributions to the particles' owners.
//
// No replication (pr.C must be 1); reflective boxes only (midpoints are
// ambiguous under periodic wrap); the box dimension must equal dim.
func midpointND(ps []phys.Particle, pr Params, dim int) ([]phys.Particle, *trace.Report, error) {
	n := len(ps)
	pr.C = 1
	if err := pr.validateCommon(n); err != nil {
		return nil, nil, err
	}
	if pr.Law.Cutoff <= 0 {
		return nil, nil, fmt.Errorf("core: midpoint method requires a positive cutoff")
	}
	if pr.Box.Dim != dim {
		return nil, nil, fmt.Errorf("core: midpoint-%dD needs a %dD box, got dim %d", dim, dim, pr.Box.Dim)
	}
	if pr.Box.Boundary != phys.Reflective {
		return nil, nil, fmt.Errorf("core: midpoint method requires reflective boundaries")
	}
	T := pr.P // one team per rank
	tg, err := topo.NewTeamGrid(T, dim)
	if err != nil {
		return nil, nil, err
	}
	w := pr.Box.L / float64(tg.Side)
	mHalf := int(math.Ceil(pr.Law.Cutoff/(2*w) - 1e-12))
	if mHalf < 1 {
		mHalf = 1
	}
	if 2*mHalf+1 > tg.Side {
		return nil, nil, fmt.Errorf("core: midpoint import region 2·%d+1 exceeds grid side %d", mHalf, tg.Side)
	}
	// Import offsets: the Chebyshev half-window without the origin, in a
	// fixed order shared by all ranks.
	var window []topo.Offset
	for _, off := range topo.Serpentine(mHalf, dim) {
		if off != (topo.Offset{}) {
			window = append(window, off)
		}
	}
	dirs := migrationDirs(dim)
	perS, perW := cutoffBounds(n, pr)

	rr := newRunRecorder(pr)
	report, results, err := comm.RunProc(pr.P, pr.Options, pr.Proc, func(world *comm.Comm) error {
		me := world.Rank()
		st := world.Stats()
		pool := phys.NewPool(pr.WorkersPerRank())
		defer pool.Close()

		// Per-step metrics, mirroring the all-pairs and cutoff loops:
		// step wall time from rank 0, per-rank per-step compute time from
		// every rank. Handles are nil — and the calls no-ops — when the
		// run is not observed.
		mx := world.Metrics()
		stepWall := mx.Histogram("step.wall_ns")
		stepCompute := mx.Histogram("step.compute_ns")
		stepsDone := mx.Counter("step.count")
		observed := mx != nil
		po := newPoolObs(pool, st, mx)
		probe := newStepProbe(world, perS, perW)
		sampler := rr.sampler(world, pr.Steps)
		var mine []phys.Particle
		for i := range ps {
			if teamOfPos(ps[i].Pos, pr.Box, tg) == me {
				mine = append(mine, ps[i])
			}
		}

		st.StartTiming()
		defer st.StopTiming()

		for step := 0; step < pr.Steps; step++ {
			var t0 time.Time
			var computeBefore time.Duration
			if observed {
				t0 = time.Now()
				computeBefore = st.ByPhase[trace.Compute].Time
			}
			// (1) Import: exchange cells with every neighbor in the
			// half-window.
			st.SetPhase(trace.Shift)
			imports := make(map[int][]phys.Particle, len(window))
			myData := phys.EncodeSlice(mine)
			for d, off := range window {
				to, toOK := tg.Neighbor(me, off.DX, off.DY, false)
				from, fromOK := tg.Neighbor(me, -off.DX, -off.DY, false)
				if toOK {
					world.Send(to, tagShift+d, myData)
				}
				if fromOK {
					slab, err := phys.DecodeSlice(world.Recv(from, tagShift+d))
					if err != nil {
						return err
					}
					imports[from] = slab
				}
			}

			// (2) Compute every pair whose midpoint lies in my cell. The
			// traversal is target-major: each target sums open.Pair over
			// every other held particle whose pair midpoint is mine. That
			// evaluates both ordered directions of each pair (the
			// symmetric half-traversal would halve the work) but makes
			// each target's accumulator exclusively its own, so the pool
			// can tile the flat target index space by disjoint ranges and
			// the result is bitwise-identical for any worker count —
			// Pair is bitwise antisymmetric and the midpoint/cutoff/ID
			// guards are symmetric, so per-particle sums match the
			// half-traversal to rounding (the method's accuracy tests are
			// tolerance-based).
			st.SetPhase(trace.Compute)
			type cellRef struct {
				owner     int
				particles []phys.Particle
			}
			cells := []cellRef{{me, append([]phys.Particle(nil), mine...)}}
			phys.ClearForces(cells[0].particles)
			for owner, sp := range imports {
				cp := append([]phys.Particle(nil), sp...)
				phys.ClearForces(cp)
				cells = append(cells, cellRef{owner, cp})
			}
			sort.Slice(cells, func(i, j int) bool { return cells[i].owner < cells[j].owner })
			rc2 := pr.Law.Cutoff * pr.Law.Cutoff
			open := pr.Law
			open.Cutoff = 0
			// Prefix sums give every particle a global target index the
			// pool can partition.
			cellStart := make([]int, len(cells)+1)
			for ci := range cells {
				cellStart[ci+1] = cellStart[ci] + len(cells[ci].particles)
			}
			counted := pool.Run(cellStart[len(cells)], func(lo, hi, _ int) int64 {
				// Locate the cell holding global target lo, then walk.
				ci := sort.SearchInts(cellStart, lo+1) - 1
				li := lo - cellStart[ci]
				var pairs int64
				for g := lo; g < hi; g++ {
					for li >= len(cells[ci].particles) {
						ci++
						li = 0
					}
					t := &cells[ci].particles[li]
					f := t.Force
					for b := range cells {
						pb := cells[b].particles
						for j := range pb {
							s := &pb[j]
							if t.ID == s.ID {
								continue
							}
							mid := t.Pos.Add(s.Pos).Scale(0.5)
							if teamOfPos(mid, pr.Box, tg) != me {
								continue
							}
							if t.Pos.Dist2(s.Pos) > rc2 {
								continue
							}
							f = f.Add(open.Pair(t.Pos, s.Pos))
							pairs++
						}
					}
					t.Force = f
					li++
				}
				return pairs
			})
			st.CountPairs(counted)
			po.stampBatch()

			// (3) Export: return force contributions to their owners and
			// sum contributions arriving for my cell.
			st.SetPhase(trace.Reduce)
			phys.ClearForces(mine)
			for _, cell := range cells {
				if cell.owner == me {
					for i := range mine {
						mine[i].Force = mine[i].Force.Add(cell.particles[i].Force)
					}
				}
			}
			for d, off := range window {
				to, toOK := tg.Neighbor(me, off.DX, off.DY, false)
				from, fromOK := tg.Neighbor(me, -off.DX, -off.DY, false)
				if toOK {
					var payload []float64
					for _, cell := range cells {
						if cell.owner == to {
							payload = flattenForces(cell.particles)
							break
						}
					}
					world.Send(to, tagReduceBack+d, comm.F64sToBytes(payload))
				}
				if fromOK {
					contrib := comm.BytesToF64s(world.Recv(from, tagReduceBack+d))
					if len(contrib) != 2*len(mine) {
						return fmt.Errorf("core: midpoint force return of %d values for %d particles", len(contrib), len(mine))
					}
					for i := range mine {
						mine[i].Force.X += contrib[2*i]
						mine[i].Force.Y += contrib[2*i+1]
					}
				}
			}

			// (4) Integrate and migrate.
			st.SetPhase(trace.Compute)
			phys.Step(mine, pr.Box, pr.DT)
			st.SetPhase(trace.Reassign)
			migrated, err := migrate(world, tg, me, mine, pr.Box, dirs, false)
			if err != nil {
				return err
			}
			mine = migrated
			st.SetPhase(trace.Other)
			po.stampStep()
			probe.stampStep()
			if observed {
				stepCompute.Observe(int64(st.ByPhase[trace.Compute].Time - computeBefore))
				if me == 0 {
					wall := time.Since(t0)
					stepWall.Observe(wall.Nanoseconds())
					stepsDone.Inc()
					sampler.stampStep(wall)
				}
			}
		}
		world.Deposit(me, mine)
		return nil
	})
	stampReport(report, perS, perW, pr.Steps)
	rr.finish(report)
	if err != nil {
		return nil, report, err
	}
	return gatherResults(results, n), report, nil
}

// tagReduceBack tags the midpoint method's force-return messages.
const tagReduceBack = 5000
