//go:build !obsdebug

// The zero-allocation claim is a release-build property: obsdebug
// builds deliberately allocate in the Stats ownership guard, so this
// test only runs without the tag.

package comm

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestScratchReductionsSteadyStateAllocFree pins the zero-allocation
// claim for the scratch reduction paths end to end: once the per-rank
// scratch has grown, additional reduction rounds must not allocate —
// measured as the malloc count of two otherwise identical runs that
// differ only in round count.
func TestScratchReductionsSteadyStateAllocFree(t *testing.T) {
	const p, length = 4, 64
	run := func(rounds int) {
		_, err := Run(p, Options{}, func(c *Comm) error {
			var sc1, sc2 F64Scratch
			vals := make([]float64, length)
			for i := range vals {
				vals[i] = float64(c.Rank() + i)
			}
			for round := 0; round < rounds; round++ {
				c.ReduceScatterF64sInto(vals, &sc1)
				c.AllreduceRabenseifnerInto(vals, &sc2)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Measured with the collector parked, as in internal/core's
	// quiescedAllocs: AllocsPerRun pins a single P and no GC cycle may
	// flush the runtime's free lists mid-measurement, so only the
	// program's own mallocs are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	base := testing.AllocsPerRun(5, func() { run(3) })
	long := testing.AllocsPerRun(5, func() { run(23) })
	if long > base {
		t.Errorf("20 extra reduction rounds allocated %.0f times, want 0 (base run %.0f, long run %.0f)", long-base, base, long)
	}
}
