package phys

import "math"

// Kernel is a Law compiled for the inner loop: the potential kind, the
// cutoff test, and the softening/strength constants are resolved once,
// when the kernel is built, instead of once per pair. Accumulate and
// AccumulateIn dispatch to one of four specialized loops (repulsive or
// Lennard-Jones, open or cutoff) whose bodies keep every constant in a
// local and never consult the Law again. Each flavor has exactly one
// loop.
//
// The specialized loops are bitwise-identical to the generic
// Law.Pair-per-pair path (AccumulateGeneric, AccumulateInGeneric): they
// perform the same floating-point operations in the same order, down to
// the exact zero the generic path adds for beyond-cutoff and coincident
// pairs. That is asserted by TestKernelMatchesGeneric* in
// kernel_test.go, so the fast path cannot drift from the reference the
// parallel algorithms are verified against. For the same reason only
// single-operation constants are hoisted (σ² = σ·σ, r_c² = r_c·r_c,
// ε_s² = ε_s·ε_s, 24ε): folding σ⁶ or 1/r_c² would reassociate the
// arithmetic and change low-order bits.
//
// A Kernel is a plain value: building one allocates nothing, and the
// loops themselves are allocation-free (guarded by TestKernelAllocs).
type Kernel struct {
	lj     bool // Lennard-Jones; false = repulsive (the Potential default)
	hasCut bool
	k      float64 // repulsive strength K
	e24    float64 // 24ε (the LJ force prefactor as the generic path groups it)
	sig2   float64 // σ²
	soft2  float64 // softening²
	rc2    float64 // cutoff²
}

// Kernel compiles the law into its specialized inner-loop form. The
// zero Law compiles to a valid (if dull) kernel; unknown potential kinds
// fall back to repulsive, mirroring Law.pairVec's default case.
func (l Law) Kernel() Kernel {
	return Kernel{
		lj:     l.Kind == LennardJones,
		hasCut: l.Cutoff > 0,
		k:      l.K,
		e24:    24 * l.Epsilon,
		sig2:   l.Sigma * l.Sigma,
		soft2:  l.Softening * l.Softening,
		rc2:    l.Cutoff * l.Cutoff,
	}
}

// Accumulate is the specialized form of Law.Accumulate: it adds to every
// target's force accumulator the force from every source, skipping (and
// not counting) equal-ID pairs, and returns the number of pair
// evaluations performed. The kind/cutoff dispatch happens once per call.
func (k *Kernel) Accumulate(targets, sources []Particle) int64 {
	switch {
	case k.lj && k.hasCut:
		return k.accumulateLJCut(targets, sources)
	case k.lj:
		return k.accumulateLJOpen(targets, sources)
	case k.hasCut:
		return k.accumulateRepCut(targets, sources)
	default:
		return k.accumulateRepOpen(targets, sources)
	}
}

// AccumulateIn is the specialized form of Law.AccumulateIn: Accumulate
// under the box metric (minimum-image displacements for periodic boxes),
// counting beyond-cutoff pairs as evaluations exactly as the generic
// path does.
func (k *Kernel) AccumulateIn(targets, sources []Particle, box Box) int64 {
	switch {
	case k.lj && k.hasCut:
		return k.accumulateInLJCut(targets, sources, box)
	case k.lj:
		return k.accumulateInLJOpen(targets, sources, box)
	case k.hasCut:
		return k.accumulateInRepCut(targets, sources, box)
	default:
		return k.accumulateInRepOpen(targets, sources, box)
	}
}

// The loop bodies below mirror the generic path operation for operation.
// `fx += 0` statements reproduce the generic path's f.Add(vec.Vec2{})
// for pairs whose force is exactly zero: adding +0 normalizes a -0
// accumulator, so eliding the add would not be bitwise-faithful.
//
// The repulsive loops process two sources per iteration with both lane
// weights computed before either is accumulated. This is not a generic
// unroll-for-speed: SQRTSD writes only the low lane of its destination
// register, so a one-wide loop carries a false dependency from each
// iteration's sqrt to the previous iteration's, serializing the loop at
// sqrt+mul latency (measured ~1.5× slower than the call-heavy generic
// path, which breaks the chain by reloading registers per call). Keeping
// both lane weights live forces distinct sqrt destinations. Accumulation
// stays strictly in source order — lane 0 then lane 1 — so the result is
// still bitwise-identical to the one-at-a-time reference. The LJ loops
// have no sqrt (DIVSD's destination is a true input, rewritten fresh
// every iteration) and stay one-wide.
//
// Each lane tracks a single `ok` flag; the rare exact-zero add is
// re-derived in the accumulation step (from the ID test, or for the
// box-metric cutoff loops from the retained lane displacements) instead
// of being carried in a second flag — a second per-lane boolean makes
// the compiler emit branchless SETcc sequences that roughly double the
// loop's critical path (measured).

func (k *Kernel) accumulateRepOpen(targets, sources []Particle) int64 {
	kk, soft2 := k.k, k.soft2
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		j := 0
		for ; j+1 < len(sources); j += 2 {
			s0, s1 := &sources[j], &sources[j+1]
			var w0, w1, dx0, dy0, dx1, dy1 float64
			ok0, ok1 := false, false
			if s0.ID != id {
				n++
				dx0 = px - s0.Pos.X
				dy0 = py - s0.Pos.Y
				r2 := dx0*dx0 + dy0*dy0 + soft2
				if r2 != 0 {
					w0 = kk / (r2 * math.Sqrt(r2))
					ok0 = true
				}
			}
			if s1.ID != id {
				n++
				dx1 = px - s1.Pos.X
				dy1 = py - s1.Pos.Y
				r2 := dx1*dx1 + dy1*dy1 + soft2
				if r2 != 0 {
					w1 = kk / (r2 * math.Sqrt(r2))
					ok1 = true
				}
			}
			if ok0 {
				fx += w0 * dx0
				fy += w0 * dy0
			} else if s0.ID != id {
				fx += 0
				fy += 0
			}
			if ok1 {
				fx += w1 * dx1
				fy += w1 * dy1
			} else if s1.ID != id {
				fx += 0
				fy += 0
			}
		}
		for ; j < len(sources); j++ {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
			dx := px - s.Pos.X
			dy := py - s.Pos.Y
			r2 := dx*dx + dy*dy + soft2
			if r2 == 0 {
				fx += 0
				fy += 0
				continue
			}
			w := kk / (r2 * math.Sqrt(r2))
			fx += w * dx
			fy += w * dy
		}
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}

func (k *Kernel) accumulateRepCut(targets, sources []Particle) int64 {
	kk, soft2, rc2 := k.k, k.soft2, k.rc2
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		j := 0
		for ; j+1 < len(sources); j += 2 {
			s0, s1 := &sources[j], &sources[j+1]
			var w0, w1, dx0, dy0, dx1, dy1 float64
			// Every counted pair without a force (beyond cutoff or exactly
			// coincident) gets the zero add here, so `counted && !ok` is
			// exactly the zero-add condition.
			ok0, ok1 := false, false
			if s0.ID != id {
				n++
				dx0 = px - s0.Pos.X
				dy0 = py - s0.Pos.Y
				d2 := dx0*dx0 + dy0*dy0
				if d2 <= rc2 {
					r2 := d2 + soft2
					if r2 != 0 {
						w0 = kk / (r2 * math.Sqrt(r2))
						ok0 = true
					}
				}
			}
			if s1.ID != id {
				n++
				dx1 = px - s1.Pos.X
				dy1 = py - s1.Pos.Y
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
			} else if s0.ID != id {
				fx += 0
				fy += 0
			}
			if ok1 {
				fx += w1 * dx1
				fy += w1 * dy1
			} else if s1.ID != id {
				fx += 0
				fy += 0
			}
		}
		for ; j < len(sources); j++ {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
			dx := px - s.Pos.X
			dy := py - s.Pos.Y
			d2 := dx*dx + dy*dy
			if d2 > rc2 {
				fx += 0
				fy += 0
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
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}

func (k *Kernel) accumulateLJOpen(targets, sources []Particle) int64 {
	e24, sig2, soft2 := k.e24, k.sig2, k.soft2
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		for j := range sources {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
			dx := px - s.Pos.X
			dy := py - s.Pos.Y
			r2 := dx*dx + dy*dy + soft2
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
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}

func (k *Kernel) accumulateLJCut(targets, sources []Particle) int64 {
	e24, sig2, soft2, rc2 := k.e24, k.sig2, k.soft2, k.rc2
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		for j := range sources {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
			dx := px - s.Pos.X
			dy := py - s.Pos.Y
			d2 := dx*dx + dy*dy
			if d2 > rc2 {
				fx += 0
				fy += 0
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
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}

// The AccumulateIn variants inline the box metric: the minimum-image
// wrap applies only to periodic boxes (and only to Y in 2D), exactly as
// Box.MinImage computes it. Beyond-cutoff pairs are counted and skipped
// WITHOUT the zero add — the generic AccumulateIn skips the Add call
// entirely there, unlike the generic Accumulate.

func (k *Kernel) accumulateInRepOpen(targets, sources []Particle, box Box) int64 {
	kk, soft2 := k.k, k.soft2
	periodic, dim2, boxL := box.Boundary == Periodic, box.Dim >= 2, box.L
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		j := 0
		for ; j+1 < len(sources); j += 2 {
			s0, s1 := &sources[j], &sources[j+1]
			var w0, w1, dx0, dy0, dx1, dy1 float64
			ok0, ok1 := false, false
			if s0.ID != id {
				n++
				dx0 = px - s0.Pos.X
				dy0 = py - s0.Pos.Y
				if periodic {
					dx0 = minImage1(dx0, boxL)
					if dim2 {
						dy0 = minImage1(dy0, boxL)
					}
				}
				r2 := dx0*dx0 + dy0*dy0 + soft2
				if r2 != 0 {
					w0 = kk / (r2 * math.Sqrt(r2))
					ok0 = true
				}
			}
			if s1.ID != id {
				n++
				dx1 = px - s1.Pos.X
				dy1 = py - s1.Pos.Y
				if periodic {
					dx1 = minImage1(dx1, boxL)
					if dim2 {
						dy1 = minImage1(dy1, boxL)
					}
				}
				r2 := dx1*dx1 + dy1*dy1 + soft2
				if r2 != 0 {
					w1 = kk / (r2 * math.Sqrt(r2))
					ok1 = true
				}
			}
			if ok0 {
				fx += w0 * dx0
				fy += w0 * dy0
			} else if s0.ID != id {
				fx += 0
				fy += 0
			}
			if ok1 {
				fx += w1 * dx1
				fy += w1 * dy1
			} else if s1.ID != id {
				fx += 0
				fy += 0
			}
		}
		for ; j < len(sources); j++ {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
			dx := px - s.Pos.X
			dy := py - s.Pos.Y
			if periodic {
				dx = minImage1(dx, boxL)
				if dim2 {
					dy = minImage1(dy, boxL)
				}
			}
			r2 := dx*dx + dy*dy + soft2
			if r2 == 0 {
				fx += 0
				fy += 0
				continue
			}
			w := kk / (r2 * math.Sqrt(r2))
			fx += w * dx
			fy += w * dy
		}
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}

func (k *Kernel) accumulateInRepCut(targets, sources []Particle, box Box) int64 {
	kk, soft2, rc2 := k.k, k.soft2, k.rc2
	periodic, dim2, boxL := box.Boundary == Periodic, box.Dim >= 2, box.L
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		j := 0
		for ; j+1 < len(sources); j += 2 {
			s0, s1 := &sources[j], &sources[j+1]
			var w0, w1, dx0, dy0, dx1, dy1 float64
			// Beyond-cutoff lanes get neither the force nor the zero add:
			// the generic AccumulateIn skips the Add call entirely there.
			// The zero add applies only to counted coincident pairs, which
			// the accumulation step re-derives from the retained lane
			// displacements (d² + soft² == 0 implies d² = 0 ≤ rc²).
			ok0, ok1 := false, false
			if s0.ID != id {
				n++
				dx0 = px - s0.Pos.X
				dy0 = py - s0.Pos.Y
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
			if s1.ID != id {
				n++
				dx1 = px - s1.Pos.X
				dy1 = py - s1.Pos.Y
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
			} else if s0.ID != id && dx0*dx0+dy0*dy0+soft2 == 0 {
				fx += 0
				fy += 0
			}
			if ok1 {
				fx += w1 * dx1
				fy += w1 * dy1
			} else if s1.ID != id && dx1*dx1+dy1*dy1+soft2 == 0 {
				fx += 0
				fy += 0
			}
		}
		for ; j < len(sources); j++ {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
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
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}

func (k *Kernel) accumulateInLJOpen(targets, sources []Particle, box Box) int64 {
	e24, sig2, soft2 := k.e24, k.sig2, k.soft2
	periodic, dim2, boxL := box.Boundary == Periodic, box.Dim >= 2, box.L
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		for j := range sources {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
			dx := px - s.Pos.X
			dy := py - s.Pos.Y
			if periodic {
				dx = minImage1(dx, boxL)
				if dim2 {
					dy = minImage1(dy, boxL)
				}
			}
			r2 := dx*dx + dy*dy + soft2
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
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}

func (k *Kernel) accumulateInLJCut(targets, sources []Particle, box Box) int64 {
	e24, sig2, soft2, rc2 := k.e24, k.sig2, k.soft2, k.rc2
	periodic, dim2, boxL := box.Boundary == Periodic, box.Dim >= 2, box.L
	var n int64
	for i := range targets {
		t := &targets[i]
		fx, fy := t.Force.X, t.Force.Y
		px, py, id := t.Pos.X, t.Pos.Y, t.ID
		for j := range sources {
			s := &sources[j]
			if s.ID == id {
				continue
			}
			n++
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
		t.Force.X, t.Force.Y = fx, fy
	}
	return n
}
