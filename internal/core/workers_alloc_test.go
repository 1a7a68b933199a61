//go:build !obsdebug

// Pooled steady-state allocation guard; release builds only (the
// obsdebug Stats ownership guard deliberately allocates).

package core

import (
	"testing"

	"repro/internal/phys"
)

// TestPooledStepsAllocFree extends the end-to-end malloc guard to
// pooled runs: with workers > 1 the per-step path gains pool dispatch
// (channel wakes, tile execs, busy stamping) and none of it may
// allocate. Per-run constant costs — pool construction, worker
// goroutine spawns, first-step lane growth — appear in both runs and
// cancel. The all-pairs pipeline is entirely alloc-free, so its pooled
// steady state must contribute zero mallocs; the cutoff pipeline's
// migration phase allocates by design (data-dependent payloads), so
// there the guard is relative — a pooled step may not allocate more
// than the identical unpooled step (trajectories are bitwise-identical
// across worker counts, so the migration mallocs match exactly).
func TestPooledStepsAllocFree(t *testing.T) {
	const c, n = 2, 32

	// All-pairs: absolute guard, extra pooled steps cost zero mallocs.
	allpairs := func(steps int) func() {
		return func() {
			pr := defaultParams(4, c, steps)
			pr.Workers = 2
			if _, _, err := AllPairs(phys.InitUniform(n, pr.Box, 5), pr); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := quiescedAllocs(5, allpairs(2))
	long := quiescedAllocs(5, allpairs(12))
	if long > base {
		t.Errorf("allpairs: 10 extra pooled steps allocated %.0f times, want 0 (2-step run %.0f mallocs, 12-step run %.0f)",
			long-base, base, long)
	}

	// Cutoff: relative guard, pooling adds zero mallocs per step over
	// the unpooled run. 8 ranks: the 1D window needs at least 3 teams.
	cutoff := func(steps, workers int) func() {
		return func() {
			pr := cutoffParams(8, c, 1, phys.Periodic)
			pr.Steps = steps
			pr.Workers = workers
			if _, _, err := Cutoff(phys.InitLattice(n, pr.Box, 5), pr); err != nil {
				t.Fatal(err)
			}
		}
	}
	perStep := func(workers int) float64 {
		return quiescedAllocs(5, cutoff(12, workers)) - quiescedAllocs(5, cutoff(2, workers))
	}
	unpooled := perStep(1)
	pooled := perStep(2)
	if pooled > unpooled {
		t.Errorf("cutoff: pooled steps allocated %.0f more than unpooled over 10 extra steps, want 0 (unpooled %.0f, pooled %.0f)",
			pooled-unpooled, unpooled, pooled)
	}
}
