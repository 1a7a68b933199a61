package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/trace"
)

// sameCommCounts reports whether two runs produced identical per-phase
// message and byte counts, critical-path and summed (time excluded).
// Worker pooling touches only the compute phase, so any count drift is
// a broken S/W contract.
func sameCommCounts(a, b *trace.Report) bool {
	counts := func(s trace.PhaseStats) [4]int64 {
		return [4]int64{s.Messages, s.Bytes, s.RecvMessages, s.RecvBytes}
	}
	for _, p := range trace.Phases() {
		if counts(a.CriticalPath[p]) != counts(b.CriticalPath[p]) ||
			counts(a.Sum[p]) != counts(b.Sum[p]) {
			return false
		}
	}
	return true
}

// TestWorkerCountInvariance is the pool's headline property test: for
// every algorithm, any worker count must reproduce the workers=1 run
// bit for bit — final states identical, per-phase message/byte counts
// unchanged. The disjoint-target tiling guarantees it by construction;
// this pins the construction.
func TestWorkerCountInvariance(t *testing.T) {
	algos := []struct {
		name string
		run  func(workers int) ([]phys.Particle, *trace.Report, error)
	}{
		{"allpairs", func(workers int) ([]phys.Particle, *trace.Report, error) {
			pr := defaultParams(4, 2, 3)
			pr.Workers = workers
			return AllPairs(phys.InitUniform(32, pr.Box, 51), pr)
		}},
		{"allpairs_overlap", func(workers int) ([]phys.Particle, *trace.Report, error) {
			pr := defaultParams(16, 2, 3)
			pr.Workers, pr.Overlap = workers, true
			return AllPairs(phys.InitUniform(32, pr.Box, 51), pr)
		}},
		{"cutoff", func(workers int) ([]phys.Particle, *trace.Report, error) {
			pr := cutoffParams(8, 2, 1, phys.Periodic)
			pr.Workers = workers
			return Cutoff(phys.InitLattice(64, pr.Box, 51), pr)
		}},
		{"cutoff_overlap", func(workers int) ([]phys.Particle, *trace.Report, error) {
			pr := cutoffParams(18, 2, 2, phys.Reflective)
			pr.Workers, pr.Overlap = workers, true
			return Cutoff(phys.InitLattice(64, pr.Box, 51), pr)
		}},
		{"midpoint", func(workers int) ([]phys.Particle, *trace.Report, error) {
			pr := cutoffParams(8, 1, 1, phys.Reflective)
			pr.Workers = workers
			return Midpoint1D(phys.InitLattice(64, pr.Box, 51), pr)
		}},
	}
	for _, alg := range algos {
		want, wantRep, err := alg.run(1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", alg.name, err)
		}
		for _, w := range []int{2, 4} {
			got, gotRep, err := alg.run(w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg.name, w, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: particle %d = %+v, want %+v",
						alg.name, w, i, got[i], want[i])
				}
			}
			if !sameCommCounts(wantRep, gotRep) {
				t.Errorf("%s workers=%d changed per-phase message/byte counts", alg.name, w)
			}
			if gotRep.S() != wantRep.S() || gotRep.W() != wantRep.W() {
				t.Errorf("%s workers=%d: S/W %d/%d, want %d/%d",
					alg.name, w, gotRep.S(), gotRep.W(), wantRep.S(), wantRep.W())
			}
		}
	}
}

// TestWorkerImbalanceReported: pooled runs must surface per-worker
// lanes in the aggregated report (rank goroutines stamp the pool's busy
// counters into Stats each step).
func TestWorkerImbalanceReported(t *testing.T) {
	pr := defaultParams(4, 2, 3)
	pr.Workers = 2
	_, rep, err := AllPairs(phys.InitUniform(32, pr.Box, 52), pr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorkerLanes != pr.P*pr.Workers {
		t.Errorf("worker lanes = %d, want %d", rep.WorkerLanes, pr.P*pr.Workers)
	}
	if rep.WorkerSum == 0 {
		t.Error("pooled run recorded no worker busy time")
	}
	if got := rep.WorkerImbalance(); got < 1 {
		t.Errorf("worker imbalance %g < 1", got)
	}
	if !strings.Contains(rep.String(), "per-worker imbalance") {
		t.Error("report footer missing the per-worker imbalance line")
	}

	// Unpooled run: no lanes, neutral figure.
	pr.Workers = 1
	_, rep, err = AllPairs(phys.InitUniform(32, pr.Box, 52), pr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorkerLanes != 0 {
		t.Errorf("workers=1 run has %d lanes, want 0", rep.WorkerLanes)
	}
	if got := rep.WorkerImbalance(); got != 1 {
		t.Errorf("workers=1 imbalance = %g, want 1", got)
	}
}

// TestWorkersPerRank pins the Workers knob resolution: explicit values
// pass through, 0 spreads GOMAXPROCS over the ranks with a floor of 1.
func TestWorkersPerRank(t *testing.T) {
	if got := (Params{P: 4, Workers: 3}).WorkersPerRank(); got != 3 {
		t.Errorf("explicit workers: %d, want 3", got)
	}
	maxprocs := runtime.GOMAXPROCS(0)
	if got := (Params{P: 1}).WorkersPerRank(); got != maxprocs {
		t.Errorf("p=1 default workers: %d, want GOMAXPROCS %d", got, maxprocs)
	}
	// Oversubscribed: more ranks than cores clamps to 1.
	if got := (Params{P: 4 * maxprocs}).WorkersPerRank(); got != 1 {
		t.Errorf("oversubscribed default workers: %d, want 1", got)
	}
}

// TestNegativeWorkersRejected: validation must fail before any rank
// spawns.
func TestNegativeWorkersRejected(t *testing.T) {
	pr := defaultParams(4, 2, 1)
	pr.Workers = -1
	if _, _, err := AllPairs(phys.InitUniform(32, pr.Box, 5), pr); err == nil {
		t.Fatal("negative Workers accepted")
	} else if !strings.Contains(err.Error(), "worker") {
		t.Fatalf("unexpected error: %v", err)
	}
}
