//go:build !obsdebug

// The zero-allocation claim is a release-build property: obsdebug
// builds deliberately allocate in the Stats ownership guard, so this
// test only runs without the tag.

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/phys"
)

// quiescedAllocs returns testing.AllocsPerRun(runs, run) measured with
// the collector parked: one forced collection first, then none until
// the measurement ends. AllocsPerRun already pins a single P, so the
// runtime's sudog, goroutine and thread free lists neither migrate
// between Ps nor get flushed by a GC cycle mid-measurement — the two
// ways a global malloc count picks up allocations the program did not
// make. The result is the program's own mallocs per run call.
func quiescedAllocs(runs int, run func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	return testing.AllocsPerRun(runs, run)
}

// TestAllPairsSteadyStateAllocFreeEndToEnd pins the typed transport's
// headline property: once the transport's retained buffers have grown, a
// steady-state all-pairs timestep allocates nothing anywhere in the
// pipeline — broadcast, skew, shifts, reduce, integrate. Measured as
// the malloc count of two runs differing only in step count: per-run
// setup costs cancel, so extra steps must contribute zero mallocs.
func TestAllPairsSteadyStateAllocFreeEndToEnd(t *testing.T) {
	const p, c, n = 4, 2, 32
	run := func(steps int) func() {
		return func() {
			pr := defaultParams(p, c, steps)
			ps := phys.InitUniform(n, pr.Box, 5)
			if _, _, err := AllPairs(ps, pr); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := quiescedAllocs(5, run(2))
	long := quiescedAllocs(5, run(12))
	if long > base {
		t.Errorf("10 extra steps allocated %.0f times, want 0 (2-step run %.0f mallocs, 12-step run %.0f)", long-base, base, long)
	}
}
