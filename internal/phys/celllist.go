package phys

import (
	"math"

	"repro/internal/vec"
)

// CellList is a uniform spatial grid whose cell side is at least the
// cutoff radius, so that every interacting pair lies in the same or an
// adjacent cell. It is the standard serial data structure for
// distance-limited force evaluation and serves as the second, independent
// reference against which the parallel cutoff algorithms are checked.
type CellList struct {
	box   Box
	rc    float64
	side  int // cells per box dimension
	width float64
	cells [][]int // particle indices per cell, row-major
	// neighbors[c] lists the distinct cells adjacent to c (including c),
	// precomputed once at construction: the cell graph depends only on
	// the grid geometry, not on the particles, so the per-cell adjacency
	// set is not rebuilt inside Forces.
	neighbors [][]int
}

// NewCellList builds a cell list over ps for cutoff radius rc. rc must be
// positive and no larger than the box length.
func NewCellList(ps []Particle, rc float64, box Box) *CellList {
	if rc <= 0 || rc > box.L {
		panic("phys: cell list cutoff out of range")
	}
	side := int(math.Floor(box.L / rc))
	if side < 1 {
		side = 1
	}
	cl := &CellList{
		box:   box,
		rc:    rc,
		side:  side,
		width: box.L / float64(side),
	}
	ncells := side
	if box.Dim == 2 {
		ncells = side * side
	}
	cl.cells = make([][]int, ncells)
	for i := range ps {
		c := cl.cellOf(ps[i].Pos)
		cl.cells[c] = append(cl.cells[c], i)
	}
	cl.neighbors = make([][]int, ncells)
	for c := range cl.neighbors {
		cl.neighbors[c] = cl.neighborCells(c)
	}
	return cl
}

func (cl *CellList) cellOf(pos vec.Vec2) int {
	cx := cl.coord(pos.X)
	if cl.box.Dim == 1 {
		return cx
	}
	return cl.coord(pos.Y)*cl.side + cx
}

func (cl *CellList) coord(x float64) int {
	c := int(x / cl.width)
	if c < 0 {
		c = 0
	}
	if c >= cl.side {
		c = cl.side - 1
	}
	return c
}

// neighborCells computes the distinct cells adjacent to cell c (including
// c itself), honoring the box's boundary condition: periodic boxes wrap,
// reflective boxes truncate at the edges. Wrapping in tiny grids can
// alias several offsets onto one cell; duplicates are removed so no pair
// is evaluated twice. Called only from NewCellList to fill the neighbor
// table; Forces reads the table.
func (cl *CellList) neighborCells(c int) []int {
	var raw []int
	if cl.box.Dim == 1 {
		for d := -1; d <= 1; d++ {
			if n, ok := cl.shiftCoord(c, d); ok {
				raw = append(raw, n)
			}
		}
	} else {
		cx, cy := c%cl.side, c/cl.side
		for dy := -1; dy <= 1; dy++ {
			ny, oky := cl.shiftCoord(cy, dy)
			if !oky {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				nx, okx := cl.shiftCoord(cx, dx)
				if !okx {
					continue
				}
				raw = append(raw, ny*cl.side+nx)
			}
		}
	}
	// Dedup in place: raw never exceeds 9 entries, so a linear scan over
	// the kept prefix beats a map (and allocates nothing beyond raw).
	out := raw[:0]
dedup:
	for _, n := range raw {
		for _, kept := range out {
			if kept == n {
				continue dedup
			}
		}
		out = append(out, n)
	}
	return out
}

func (cl *CellList) shiftCoord(c, d int) (int, bool) {
	n := c + d
	if cl.box.Boundary == Periodic {
		return ((n % cl.side) + cl.side) % cl.side, true
	}
	if n < 0 || n >= cl.side {
		return 0, false
	}
	return n, true
}

// Forces evaluates the cutoff force on every particle using the cell list
// and stores it in the accumulators. law.Cutoff must equal the rc the
// list was built with. With a single cell per dimension it degrades
// gracefully to brute force. The inner loop is specialized per potential
// kind (dispatch happens once per call) and walks the precomputed
// neighbor table, so a Forces call over a built list allocates nothing;
// ForcesGeneric is the per-pair reference it is verified against.
func (cl *CellList) Forces(ps []Particle, law Law) {
	cl.ForcesPooled(ps, law, nil)
}

// ForcesPooled is Forces with the cell index space tiled across a
// worker pool. Each particle belongs to exactly one cell, so a
// contiguous cell tile owns a disjoint set of force accumulators and
// the result is bitwise-identical to Forces for every worker count. A
// nil pool runs the whole range inline (Forces delegates here).
func (cl *CellList) ForcesPooled(ps []Particle, law Law, pool *Pool) {
	if law.Cutoff != cl.rc {
		panic("phys: law cutoff differs from cell list cutoff")
	}
	k := law.Kernel()
	ClearForces(ps)
	if pool == nil {
		cl.forcesRange(ps, &k, 0, len(cl.cells))
		return
	}
	pool.cellForces(cl, ps, k)
}

// forcesRange evaluates the cells in [lo, hi), dispatching once to the
// per-potential specialized loop, and returns the number of target
// particles covered (the pool's per-tile work measure).
func (cl *CellList) forcesRange(ps []Particle, k *Kernel, lo, hi int) int64 {
	var covered int64
	for c := lo; c < hi; c++ {
		covered += int64(len(cl.cells[c]))
	}
	if k.lj {
		cl.forcesLJ(ps, k, lo, hi)
	} else {
		cl.forcesRep(ps, k, lo, hi)
	}
	return covered
}

// ForcesGeneric is the unspecialized reference implementation of Forces,
// evaluating every candidate pair through Law.Pair with the kind
// re-tested per pair. The specialized loops are verified bitwise against
// it; benchmarks use it as the before-optimization baseline.
func (cl *CellList) ForcesGeneric(ps []Particle, law Law) {
	if law.Cutoff != cl.rc {
		panic("phys: law cutoff differs from cell list cutoff")
	}
	ClearForces(ps)
	rc2 := cl.rc * cl.rc
	open := law
	open.Cutoff = 0
	for c := range cl.cells {
		for _, ti := range cl.cells[c] {
			t := &ps[ti]
			f := t.Force
			for _, nc := range cl.neighbors[c] {
				for _, si := range cl.cells[nc] {
					if si == ti {
						continue
					}
					d := cl.box.MinImage(t.Pos, ps[si].Pos)
					if d.Norm2() > rc2 {
						continue
					}
					f = f.Add(open.Pair(d, vec.Vec2{}))
				}
			}
			t.Force = f
		}
	}
}

// forcesRep is the repulsive-potential cell loop: constants hoisted, box
// metric inlined, neighbor sets read from the precomputed table. The
// floating-point sequence mirrors ForcesGeneric operation for operation.
// Like the repulsive Kernel loops (see kernel.go), the member loop runs
// two sources wide with both lane weights live across the sqrts to break
// SQRTSD's false output dependency; accumulation stays in member order.
func (cl *CellList) forcesRep(ps []Particle, k *Kernel, lo, hi int) {
	kk, soft2, rc2 := k.k, k.soft2, k.rc2
	periodic, dim2, boxL := cl.box.Boundary == Periodic, cl.box.Dim >= 2, cl.box.L
	for c := lo; c < hi; c++ {
		for _, ti := range cl.cells[c] {
			t := &ps[ti]
			fx, fy := t.Force.X, t.Force.Y
			px, py := t.Pos.X, t.Pos.Y
			for _, nc := range cl.neighbors[c] {
				members := cl.cells[nc]
				j := 0
				for ; j+1 < len(members); j += 2 {
					si0, si1 := members[j], members[j+1]
					var w0, w1, dx0, dy0, dx1, dy1 float64
					// One flag per lane (see kernel.go): the rare
					// coincident-pair zero add is re-derived from the
					// retained displacements in the accumulation step.
					ok0, ok1 := false, false
					if si0 != ti {
						s := &ps[si0]
						dx0 = px - s.Pos.X
						dy0 = py - s.Pos.Y
						if periodic {
							dx0 = minImage1(dx0, boxL)
							if dim2 {
								dy0 = minImage1(dy0, boxL)
							}
						}
						d2 := dx0*dx0 + dy0*dy0
						if d2 <= rc2 {
							r2 := d2 + soft2
							if r2 != 0 {
								w0 = kk / (r2 * math.Sqrt(r2))
								ok0 = true
							}
						}
					}
					if si1 != ti {
						s := &ps[si1]
						dx1 = px - s.Pos.X
						dy1 = py - s.Pos.Y
						if periodic {
							dx1 = minImage1(dx1, boxL)
							if dim2 {
								dy1 = minImage1(dy1, boxL)
							}
						}
						d2 := dx1*dx1 + dy1*dy1
						if d2 <= rc2 {
							r2 := d2 + soft2
							if r2 != 0 {
								w1 = kk / (r2 * math.Sqrt(r2))
								ok1 = true
							}
						}
					}
					if ok0 {
						fx += w0 * dx0
						fy += w0 * dy0
					} else if si0 != ti && dx0*dx0+dy0*dy0+soft2 == 0 {
						fx += 0
						fy += 0
					}
					if ok1 {
						fx += w1 * dx1
						fy += w1 * dy1
					} else if si1 != ti && dx1*dx1+dy1*dy1+soft2 == 0 {
						fx += 0
						fy += 0
					}
				}
				for ; j < len(members); j++ {
					si := members[j]
					if si == ti {
						continue
					}
					s := &ps[si]
					dx := px - s.Pos.X
					dy := py - s.Pos.Y
					if periodic {
						dx = minImage1(dx, boxL)
						if dim2 {
							dy = minImage1(dy, boxL)
						}
					}
					d2 := dx*dx + dy*dy
					if d2 > rc2 {
						continue
					}
					r2 := d2 + soft2
					if r2 == 0 {
						fx += 0
						fy += 0
						continue
					}
					w := kk / (r2 * math.Sqrt(r2))
					fx += w * dx
					fy += w * dy
				}
			}
			t.Force.X, t.Force.Y = fx, fy
		}
	}
}

// forcesLJ is the Lennard-Jones counterpart of forcesRep.
func (cl *CellList) forcesLJ(ps []Particle, k *Kernel, lo, hi int) {
	e24, sig2, soft2, rc2 := k.e24, k.sig2, k.soft2, k.rc2
	periodic, dim2, boxL := cl.box.Boundary == Periodic, cl.box.Dim >= 2, cl.box.L
	for c := lo; c < hi; c++ {
		for _, ti := range cl.cells[c] {
			t := &ps[ti]
			fx, fy := t.Force.X, t.Force.Y
			px, py := t.Pos.X, t.Pos.Y
			for _, nc := range cl.neighbors[c] {
				for _, si := range cl.cells[nc] {
					if si == ti {
						continue
					}
					s := &ps[si]
					dx := px - s.Pos.X
					dy := py - s.Pos.Y
					if periodic {
						dx = minImage1(dx, boxL)
						if dim2 {
							dy = minImage1(dy, boxL)
						}
					}
					d2 := dx*dx + dy*dy
					if d2 > rc2 {
						continue
					}
					r2 := d2 + soft2
					if r2 == 0 {
						fx += 0
						fy += 0
						continue
					}
					s2 := sig2 / r2
					s6 := s2 * s2 * s2
					s12 := s6 * s6
					w := e24 * (2*s12 - s6) / r2
					fx += w * dx
					fy += w * dy
				}
			}
			t.Force.X, t.Force.Y = fx, fy
		}
	}
}
