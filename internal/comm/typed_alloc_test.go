//go:build !obsdebug

// The zero-allocation claim is a release-build property: obsdebug
// builds deliberately allocate in the Stats ownership guard, so this
// test only runs without the tag.

package comm

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/phys"
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

// TestTypedShiftsSteadyStateAllocFree pins the typed transport's
// per-message cost: a particle payload moves between ranks by
// reference, so once the ring is running, additional shift rounds —
// unframed SendrecvParticles and framed SendrecvTeamParticles, the two
// exchanges the timestep loops' shift phases use — must not allocate.
// Measured as the malloc count of two runs that differ only in round
// count, with the collector parked.
func TestTypedShiftsSteadyStateAllocFree(t *testing.T) {
	const p, length = 4, 64
	run := func(rounds int) {
		_, err := Run(p, Options{}, func(c *Comm) error {
			to, from := (c.Rank()+1)%p, (c.Rank()+p-1)%p
			ps := make([]phys.Particle, length)
			framed := make([]phys.Particle, length)
			team := c.Rank()
			for round := 0; round < rounds; round++ {
				ps = c.SendrecvParticles(to, ps, from, 0)
				team, framed = c.SendrecvTeamParticles(to, team, framed, from, 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	base := testing.AllocsPerRun(5, func() { run(3) })
	long := testing.AllocsPerRun(5, func() { run(23) })
	if long > base {
		t.Errorf("20 extra shift rounds allocated %.0f times, want 0 (base run %.0f, long run %.0f)", long-base, base, long)
	}
}
