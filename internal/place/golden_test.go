package place

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the golden objective file")

// goldenObjective is the committed objective record for the smoke
// gate: searcher costs on the recorded cutoff matrix under a fixed
// seed. The arithmetic is deterministic (fixed seeds, fixed edge
// order, no map iteration), so the values must match bitwise across
// runs and machines.
type goldenObjective struct {
	IdentityHopBytes float64 `json:"identity_hop_bytes"`
	GreedyHopBytes   float64 `json:"greedy_hop_bytes"`
	AnnealHopBytes   float64 `json:"anneal_seed42_hop_bytes"`
}

const goldenPath = "testdata/golden_objective.json"

// TestPlaceGolden is the `make placesmoke` gate: on the recorded
// p=64 cutoff communication matrix over the Balanced3D generic torus,
// the greedy constructor and the seeded annealing searcher must beat
// the identity hop cost and reproduce the committed objective values
// exactly.
// Regenerate with `go test ./internal/place/ -run TestPlaceGolden
// -update` after an intentional searcher change.
func TestPlaceGolden(t *testing.T) {
	traffic, err := LoadMatrixFile("testdata/matrix_cutoff_p64.json")
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := topo.Balanced3D(len(traffic), 1)
	tor, err := topo.NewTorus(x, y, z, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(traffic, tor)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenObjective{IdentityHopBytes: ev.Cost(ev.Identity())}
	got.GreedyHopBytes = ev.Cost(Greedy{}.Search(ev, 42))
	got.AnnealHopBytes = ev.Cost(Anneal{}.Search(ev, 42))

	if got.GreedyHopBytes >= got.IdentityHopBytes {
		t.Errorf("greedy cost %.0f does not beat identity %.0f", got.GreedyHopBytes, got.IdentityHopBytes)
	}
	if got.AnnealHopBytes >= got.IdentityHopBytes {
		t.Errorf("anneal cost %.0f does not beat identity %.0f", got.AnnealHopBytes, got.IdentityHopBytes)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %+v", got)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenObjective
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("objective drift:\n got %+v\nwant %+v\nregenerate with -update only if the searcher change is intentional", got, want)
	}
}
