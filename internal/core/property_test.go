package core

import (
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/vec"
)

// TestAllPairsRandomConfigurations is a property-style sweep: many
// pseudo-random feasible (p, c, n, seed) combinations must all match the
// serial reference. It complements the fixed matrix in allpairs_test.go
// with configurations nobody hand-picked.
func TestAllPairsRandomConfigurations(t *testing.T) {
	rng := vec.NewRNG(2024)
	feasiblePC := [][2]int{
		{4, 1}, {4, 2}, {9, 3}, {8, 2}, {12, 2}, {16, 4}, {18, 3}, {25, 5}, {27, 3}, {32, 4},
	}
	for trial := 0; trial < 12; trial++ {
		pc := feasiblePC[rng.Intn(len(feasiblePC))]
		p, c := pc[0], pc[1]
		T := p / c
		n := T * (1 + rng.Intn(6)) // random multiple of the team count
		seed := rng.Uint64()
		pr := defaultParams(p, c, 2)
		ps := phys.InitUniform(n, pr.Box, seed)
		want := serialRun(ps, pr.Law, pr.Box, pr.Steps, pr.DT)
		phys.SortByID(want)
		got, _, err := AllPairs(ps, pr)
		if err != nil {
			t.Fatalf("trial %d (p=%d c=%d n=%d): %v", trial, p, c, n, err)
		}
		for i := range got {
			if d := got[i].Pos.Dist(want[i].Pos); d > 1e-9 {
				t.Fatalf("trial %d (p=%d c=%d n=%d seed=%d): particle %d deviates by %g",
					trial, p, c, n, seed, i, d)
			}
		}
	}
}

// TestParallelMomentumConservation: the symmetric force law conserves
// total momentum; wall reflections are the only source of change. With
// particles kept away from the walls, a parallel run must conserve
// momentum to rounding.
func TestParallelMomentumConservation(t *testing.T) {
	pr := defaultParams(16, 2, 5)
	pr.DT = 1e-5 // keep particles off the walls over 5 steps
	box := pr.Box
	ps := make([]phys.Particle, 32)
	rng := vec.NewRNG(77)
	for i := range ps {
		ps[i].ID = uint32(i)
		// Interior band only.
		ps[i].Pos = vec.Vec2{X: rng.Range(2, box.L-2), Y: rng.Range(2, box.L-2)}
		ps[i].Vel = vec.Vec2{X: rng.Range(-0.1, 0.1), Y: rng.Range(-0.1, 0.1)}
	}
	before := phys.Momentum(ps)
	got, _, err := AllPairs(ps, pr)
	if err != nil {
		t.Fatal(err)
	}
	after := phys.Momentum(got)
	if d := after.Sub(before).Norm(); d > 1e-9 {
		t.Errorf("momentum changed by %g in a wall-free parallel run", d)
	}
}

// TestCutoffMigrationTooFastFails injects a failure: a timestep so large
// that particles jump more than one team width must surface as a clean
// error from every rank, not a hang or corruption.
func TestCutoffMigrationTooFastFails(t *testing.T) {
	pr := cutoffParams(16, 2, 1, phys.Reflective)
	pr.DT = 50 // absurd timestep
	pr.Steps = 3
	ps := phys.InitLattice(64, pr.Box, 5)
	// Give particles real velocity so they cross multiple slabs.
	for i := range ps {
		ps[i].Vel.X = 1
	}
	_, _, err := Cutoff(ps, pr)
	if err == nil {
		t.Fatal("expected migration-distance error")
	}
	if !strings.Contains(err.Error(), "migrated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestAllPairsSingleRankDegenerate: p=1 must reduce to the serial
// algorithm with zero communication.
func TestAllPairsSingleRankDegenerate(t *testing.T) {
	pr := defaultParams(1, 1, 3)
	ps := phys.InitUniform(20, pr.Box, 9)
	want := serialRun(ps, pr.Law, pr.Box, pr.Steps, pr.DT)
	phys.SortByID(want)
	got, rep, err := AllPairs(ps, pr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if d := got[i].Pos.Dist(want[i].Pos); d > 1e-12 {
			t.Fatalf("particle %d deviates by %g", i, d)
		}
	}
	if rep.S() != 0 || rep.W() != 0 {
		t.Errorf("single rank communicated: S=%d W=%d", rep.S(), rep.W())
	}
}

// TestDeterminism: two identical parallel runs must agree bitwise (the
// runtime's collectives combine in a fixed order).
func TestDeterminism(t *testing.T) {
	pr := defaultParams(16, 4, 4)
	ps := phys.InitUniform(32, pr.Box, 123)
	a, _, err := AllPairs(ps, pr)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := AllPairs(ps, pr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("particle %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSpanFor checks the cutoff-to-team-span conversion (Equation 6).
func TestSpanFor(t *testing.T) {
	// rc exactly q team widths → m = q.
	if got := SpanFor(4, 16, 8); got != 2 {
		t.Errorf("SpanFor(4,16,8) = %d, want 2", got)
	}
	// Slightly more than q widths → rounds up.
	if got := SpanFor(4.01, 16, 8); got != 3 {
		t.Errorf("SpanFor(4.01,16,8) = %d, want 3", got)
	}
	// Tiny cutoffs clamp to 1.
	if got := SpanFor(0.001, 16, 8); got != 1 {
		t.Errorf("SpanFor(0.001,16,8) = %d, want 1", got)
	}
	if got := SpanFor(1, 16, 16); got != 1 {
		t.Errorf("SpanFor(1,16,16) = %d, want 1", got)
	}
}

// TestClusteredWorkloadImbalance: a spatially clustered particle set
// must load-balance perfectly under the all-pairs ID-block distribution
// but show measurable compute imbalance under the cutoff's spatial
// decomposition — the contrast behind the paper's uniform-density
// assumption. Load is the per-rank count of pair evaluations, which is
// exact and repeatable where per-rank compute time is not.
func TestClusteredWorkloadImbalance(t *testing.T) {
	box := phys.NewBox(16, 1, phys.Reflective)
	clustered := phys.InitClustered(128, box, 2, 0.8, 17)

	prCut := cutoffParams(16, 1, 1, phys.Reflective)
	prCut.Steps = 3
	_, repClustered, err := Cutoff(clustered, prCut)
	if err != nil {
		t.Fatal(err)
	}
	uniform := phys.InitLattice(128, box, 17)
	_, repUniform, err := Cutoff(uniform, prCut)
	if err != nil {
		t.Fatal(err)
	}
	ic := repClustered.PairImbalance()
	iu := repUniform.PairImbalance()
	if ic <= iu {
		t.Errorf("clustered cutoff pair imbalance %.2f not above uniform %.2f", ic, iu)
	}

	prAll := prCut
	prAll.Law = phys.DefaultLaw()
	_, repAll, err := AllPairs(clustered, prAll)
	if err != nil {
		t.Fatal(err)
	}
	if ia := repAll.PairImbalance(); ia != 1 {
		t.Errorf("clustered all-pairs pair imbalance %.3f, want exactly 1", ia)
	}

	// Sanity: clustered input remains numerically correct.
	want := serialCutoffRun(clustered, prCut.Law, prCut.Box, prCut.Steps, prCut.DT)
	got, _, err := Cutoff(clustered, prCut)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, got, want, 1e-9)
}
