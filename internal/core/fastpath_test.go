package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/phys"
)

// TestSteadyStateStepAllocFree pins the zero-allocation claim for the
// per-rank compute half of a timestep: kernel evaluation, force
// flatten/apply and integration — with the retained scratch buffers
// the real loops in AllPairs and Cutoff carry — must not allocate once
// the buffers have grown to size. The first call (AllocsPerRun's
// warm-up) does the growing; the measured runs must stay off the heap.
// The message half is pinned by comm's TestTypedShiftsSteadyStateAllocFree.
func TestSteadyStateStepAllocFree(t *testing.T) {
	box := phys.NewBox(4, 2, phys.Periodic)
	law := phys.LJLaw(1, 0.3).WithCutoff(1.0)
	kern := law.Kernel()
	mine := phys.InitUniform(32, box, 7)
	team := append([]phys.Particle(nil), mine...)

	var forces []float64
	step := func() {
		phys.ClearForces(team)
		kern.AccumulateIn(team, mine, box)
		forces = flattenForcesInto(forces[:0], team)
		applyForces(mine, forces)
		phys.Step(mine, box, 1e-4)
	}
	if a := testing.AllocsPerRun(50, step); a != 0 {
		t.Errorf("steady-state step allocated %.1f times per run, want 0", a)
	}
}

// TestAllPairsPairEvalsCounter checks that an observed AllPairs run
// reports exactly the closed-form pair-evaluation count through the
// "compute.pairs" metrics counter: steps × (n² − n), independent of the
// grid shape.
func TestAllPairsPairEvalsCounter(t *testing.T) {
	cases := []struct{ p, c, n int }{
		{1, 1, 12},
		{4, 1, 16},
		{4, 2, 16},
		{16, 4, 32},
	}
	for _, tc := range cases {
		pr := defaultParams(tc.p, tc.c, 3)
		ob := obs.NewObserver(tc.p, 64)
		pr.Options.Observe = ob
		ps := phys.InitUniform(tc.n, pr.Box, 5)
		if _, _, err := AllPairs(ps, pr); err != nil {
			t.Fatalf("p=%d c=%d: %v", tc.p, tc.c, err)
		}
		want := int64(pr.Steps) * AllPairsPairEvals(tc.n, tc.p, tc.c)
		got := ob.Metrics.Snapshot().Counters["compute.pairs"]
		if got != want {
			t.Errorf("p=%d c=%d n=%d: compute.pairs = %d, want %d", tc.p, tc.c, tc.n, got, want)
		}
	}
}

// TestCutoffPairEvalsCounted checks the cutoff algorithm also feeds the
// "compute.pairs" counter: the exact value depends on window geometry,
// but an observed run over interacting particles must count at least one
// evaluation per step and never more than steps × n × (n − 1).
func TestCutoffPairEvalsCounted(t *testing.T) {
	const p, c, n = 8, 2, 32
	pr := cutoffParams(p, c, 1, phys.Periodic)
	ob := obs.NewObserver(p, 64)
	pr.Options.Observe = ob
	ps := phys.InitUniform(n, pr.Box, 9)
	if _, _, err := Cutoff(ps, pr); err != nil {
		t.Fatal(err)
	}
	got := ob.Metrics.Snapshot().Counters["compute.pairs"]
	max := int64(pr.Steps) * int64(n) * int64(n-1)
	if got <= 0 || got > max {
		t.Errorf("compute.pairs = %d, want in (0, %d]", got, max)
	}
}
