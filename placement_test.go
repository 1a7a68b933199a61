package nbody

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/place"
)

// loadRecordedMatrix loads the committed p=64 cutoff-run communication
// matrix the placement acceptance criteria are defined against.
func loadRecordedMatrix(t *testing.T) [][]float64 {
	t.Helper()
	traffic, err := place.LoadMatrixFile("internal/place/testdata/matrix_cutoff_p64.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(traffic) != 64 {
		t.Fatalf("recorded matrix has %d ranks, want 64", len(traffic))
	}
	return traffic
}

// TestAutotunePlacementRecordedMatrix pins the headline acceptance
// criteria on the recorded cutoff matrix (p=64, generic machine,
// Balanced3D 4×4×4 torus): the chosen placement reduces hop-weighted
// bytes by at least 20 % versus identity, its netsim-predicted
// makespan does not regress, the hop cost respects the co-location
// lower bound, and the search is deterministic under a fixed seed.
func TestAutotunePlacementRecordedMatrix(t *testing.T) {
	traffic := loadRecordedMatrix(t)
	pl, trials, err := AutotunePlacement(traffic, Generic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Torus != [3]int{4, 4, 4} || pl.CoresPerNode != 1 {
		t.Fatalf("unexpected torus %v×%d for p=64 generic", pl.Torus, pl.CoresPerNode)
	}
	if imp := pl.Improvement(); imp < 0.20 {
		t.Errorf("hop-bytes improvement %.1f%% below the 20%% acceptance bar", 100*imp)
	}
	if pl.Makespan > pl.IdentityMakespan*(1+1e-9) {
		t.Errorf("makespan %g regressed past identity %g", pl.Makespan, pl.IdentityMakespan)
	}
	if pl.HopBytes < pl.HopBytesBound {
		t.Errorf("hop-bytes %g below the lower bound %g: bound or evaluator is wrong", pl.HopBytes, pl.HopBytesBound)
	}
	if len(trials) != 3 || trials[0].Algorithm != "identity" {
		t.Fatalf("trials = %+v, want identity + 2 searchers (greedy, anneal)", trials)
	}

	again, _, err := AutotunePlacement(traffic, Generic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Algorithm != pl.Algorithm || again.HopBytes != pl.HopBytes {
		t.Errorf("autotune nondeterministic under fixed seed: %s/%g vs %s/%g",
			pl.Algorithm, pl.HopBytes, again.Algorithm, again.HopBytes)
	}
	for i := range pl.Perm {
		if pl.Perm[i] != again.Perm[i] {
			t.Fatalf("permutation differs at rank %d under fixed seed", i)
		}
	}
}

// TestPlacementSaveLoadEvaluate round-trips a placement through its
// JSON file format and re-evaluates it against the same matrix: the
// loaded placement must score identically.
func TestPlacementSaveLoadEvaluate(t *testing.T) {
	traffic := loadRecordedMatrix(t)
	pl, _, err := AutotunePlacement(traffic, Generic, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "placement.json")
	if err := SavePlacement(path, pl); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlacement(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Algorithm != pl.Algorithm || len(loaded.Perm) != len(pl.Perm) {
		t.Fatalf("round trip lost fields: %+v", loaded)
	}
	re, err := EvaluatePlacement(loaded, traffic)
	if err != nil {
		t.Fatal(err)
	}
	if re.HopBytes != pl.HopBytes || re.IdentityHopBytes != pl.IdentityHopBytes {
		t.Errorf("re-evaluation drifted: %g/%g vs %g/%g",
			re.HopBytes, re.IdentityHopBytes, pl.HopBytes, pl.IdentityHopBytes)
	}
	if re.Makespan != pl.Makespan {
		t.Errorf("re-evaluated makespan %g != %g", re.Makespan, pl.Makespan)
	}
}

// TestLoadPlacementErrors pins the loader failure modes.
func TestLoadPlacementErrors(t *testing.T) {
	if _, err := LoadPlacement(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"perm": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlacement(bad); err == nil {
		t.Error("permless placement accepted")
	}
}

// TestOptimizePlacementStampsRun checks the live wiring end to end on
// a small observed run: OptimizePlacement succeeds, stamps the report
// footer with the hop-bytes lines, and publishes the measured and
// optimized gauges the hub's /snapshot.json reads.
func TestOptimizePlacementStampsRun(t *testing.T) {
	sim, err := New(Config{N: 288, P: 9, Cutoff: 2, Observe: &ObserveOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	pl, trials, err := sim.OptimizePlacement(Generic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 || pl.Ranks != 9 {
		t.Fatalf("placement %+v trials %d", pl, len(trials))
	}
	out := sim.Report().String()
	if !strings.Contains(out, "hop-bytes measured") || !strings.Contains(out, "hop-bytes optimized") {
		t.Errorf("report footer missing placement lines:\n%s", out)
	}
	snap := sim.MetricsSnapshot()
	if snap.Gauges["comm.hops.measured"] <= 0 {
		t.Error("comm.hops.measured gauge not published")
	}
	if got, want := snap.Gauges["comm.hops.optimized"], int64(pl.HopBytes); got != want {
		t.Errorf("comm.hops.optimized gauge = %d, want %d", got, want)
	}
	sum := sim.Report().Summary()
	if sum.Placement != pl.Algorithm || sum.HopBytesOptimized != pl.HopBytes {
		t.Errorf("JSON summary placement fields: %+v", sum)
	}

	// Unobserved simulations refuse placement optimization.
	plain, err := New(Config{N: 64, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.OptimizePlacement(Generic, 1); err == nil {
		t.Error("unobserved simulation accepted OptimizePlacement")
	}
}

// TestAutotunePlacementErrors pins input validation.
func TestAutotunePlacementErrors(t *testing.T) {
	if _, _, err := AutotunePlacement(nil, Generic, 1); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, _, err := AutotunePlacement([][]float64{{0}}, MachineName("vaporware"), 1); err == nil {
		t.Error("unknown machine accepted")
	}
}
