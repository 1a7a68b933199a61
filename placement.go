package nbody

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/place"
	"repro/internal/topo"
)

// Placement is a topology-aware rank→node mapping for one machine's
// torus, produced by AutotunePlacement from a measured communication
// matrix. Perm[r] is the torus rank slot assigned to world rank r
// (slot s lives on node s / CoresPerNode); trailing slots beyond the
// matrix dimension host no traffic. The JSON form round-trips through
// SavePlacement / LoadPlacement so a placement tuned on one run can be
// applied to (or re-evaluated against) another.
type Placement struct {
	Machine      MachineName `json:"machine"`
	Torus        [3]int      `json:"torus"`
	CoresPerNode int         `json:"cores_per_node"`
	Ranks        int         `json:"ranks"` // traffic-matrix dimension p
	Algorithm    string      `json:"algorithm"`
	Perm         []int       `json:"perm"`
	// HopBytes is Σ traffic×hops under Perm; IdentityHopBytes the same
	// sum under the natural mapping — the optimizer's objective and its
	// baseline. HopBytesBound is the co-location lower bound of the
	// objective over every placement (internal/bounds).
	HopBytes         float64 `json:"hop_bytes"`
	IdentityHopBytes float64 `json:"identity_hop_bytes"`
	HopBytesBound    float64 `json:"hop_bytes_lower_bound,omitempty"`
	// Makespan and IdentityMakespan are the netsim-predicted seconds to
	// drain the matrix as one bulk-synchronous round under Perm and
	// under identity: the contention-aware validation numbers next to
	// the contention-free hop-bytes objective.
	Makespan         float64 `json:"makespan_sec"`
	IdentityMakespan float64 `json:"identity_makespan_sec"`
}

// Improvement returns the fractional hop-bytes reduction over the
// identity mapping (0.25 = 25 % fewer hop-weighted bytes).
func (pl Placement) Improvement() float64 {
	if pl.IdentityHopBytes <= 0 {
		return 0
	}
	return 1 - pl.HopBytes/pl.IdentityHopBytes
}

// String renders the placement as a short aligned summary table.
func (pl Placement) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "placement: %s on %s torus %d×%d×%d (%d cores/node), %d ranks\n",
		pl.Algorithm, pl.Machine, pl.Torus[0], pl.Torus[1], pl.Torus[2], pl.CoresPerNode, pl.Ranks)
	fmt.Fprintf(&b, "%-32s %14.0f\n", "  hop-bytes identity", pl.IdentityHopBytes)
	fmt.Fprintf(&b, "%-32s %14.0f  (%.1f%% better)\n", "  hop-bytes optimized", pl.HopBytes, 100*pl.Improvement())
	if pl.HopBytesBound > 0 {
		fmt.Fprintf(&b, "%-32s %14.0f\n", "  hop-bytes lower bound", pl.HopBytesBound)
	}
	fmt.Fprintf(&b, "%-32s %14.3g\n", "  makespan identity (s)", pl.IdentityMakespan)
	fmt.Fprintf(&b, "%-32s %14.3g\n", "  makespan optimized (s)", pl.Makespan)
	return b.String()
}

// WriteJSON writes the placement as indented JSON.
func (pl Placement) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pl)
}

// SavePlacement writes a placement to a JSON file.
func SavePlacement(path string, pl Placement) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pl.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPlacement decodes a placement from JSON.
func ReadPlacement(r io.Reader) (Placement, error) {
	var pl Placement
	if err := json.NewDecoder(r).Decode(&pl); err != nil {
		return Placement{}, fmt.Errorf("nbody: decoding placement: %w", err)
	}
	if len(pl.Perm) == 0 {
		return Placement{}, fmt.Errorf("nbody: placement has no permutation")
	}
	return pl, nil
}

// LoadPlacement reads a placement JSON file.
func LoadPlacement(path string) (Placement, error) {
	f, err := os.Open(path)
	if err != nil {
		return Placement{}, err
	}
	defer f.Close()
	return ReadPlacement(f)
}

// PlacementTuneResult records one searcher's trial in a placement
// autotune, identity included.
type PlacementTuneResult struct {
	Algorithm string
	HopBytes  float64       // Σ traffic × hops under the searcher's placement
	Makespan  float64       // netsim-predicted seconds to drain the matrix
	Search    time.Duration // search wall time (0 for identity)
}

// AutotunePlacement closes the comm-matrix → torus-mapping loop the
// way AutotuneC closes the replication-factor one: given a measured
// (or saved) src×dst traffic byte matrix and a machine model, it sizes
// the machine's near-cubic torus partition for the matrix's rank
// count, runs the placement searchers (greedy construction and
// simulated annealing seeded from it) against the hop-weighted
// objective, validates every candidate by replaying the matrix
// through the netsim contention model, and returns the winning
// placement together with all trial results (identity first). The
// winner never regresses the predicted makespan past the identity
// mapping's. Searches are deterministic under a fixed seed.
//
// Obtain the traffic matrix from Simulation.TrafficMatrix (live) or
// nbody's matrix codec via a saved -matrix-out file.
func AutotunePlacement(traffic [][]float64, machName MachineName, seed uint64) (Placement, []PlacementTuneResult, error) {
	if machName == "" {
		machName = Generic
	}
	mach, err := machName.spec()
	if err != nil {
		return Placement{}, nil, err
	}
	p := len(traffic)
	if p == 0 {
		return Placement{}, nil, fmt.Errorf("nbody: empty traffic matrix")
	}
	tor := mach.TorusFor(p)
	best, all, err := place.Optimize(traffic, tor, mach, seed)
	if err != nil {
		return Placement{}, nil, err
	}
	trials := make([]PlacementTuneResult, 0, len(all))
	for _, r := range all {
		trials = append(trials, PlacementTuneResult{
			Algorithm: r.Algorithm,
			HopBytes:  r.HopBytes,
			Makespan:  r.Makespan,
			Search:    r.Search,
		})
	}
	identity := all[0]
	pl := Placement{
		Machine:          machName,
		Torus:            tor.Dims,
		CoresPerNode:     tor.CoresPerNode,
		Ranks:            p,
		Algorithm:        best.Algorithm,
		Perm:             best.Perm,
		HopBytes:         best.HopBytes,
		IdentityHopBytes: identity.HopBytes,
		HopBytesBound:    bounds.HopBytesLowerBound(traffic, tor.CoresPerNode),
		Makespan:         best.Makespan,
		IdentityMakespan: identity.Makespan,
	}
	return pl, trials, nil
}

// EvaluatePlacement re-scores a saved placement against a traffic
// matrix (typically from a different run of the same configuration):
// it rebuilds the placement's torus, recomputes the identity and
// permuted hop-bytes and the netsim makespans, and returns the updated
// placement. Errors when the placement's torus cannot host the
// matrix's ranks.
func EvaluatePlacement(pl Placement, traffic [][]float64) (Placement, error) {
	mach, err := pl.Machine.spec()
	if err != nil {
		return Placement{}, err
	}
	tor, err := topo.NewTorus(pl.Torus[0], pl.Torus[1], pl.Torus[2], pl.CoresPerNode)
	if err != nil {
		return Placement{}, err
	}
	ev, err := place.NewEvaluator(traffic, tor)
	if err != nil {
		return Placement{}, err
	}
	if err := ev.CheckPerm(pl.Perm); err != nil {
		return Placement{}, err
	}
	pl.Ranks = len(traffic)
	pl.IdentityHopBytes = ev.Cost(ev.Identity())
	pl.HopBytes = ev.Cost(pl.Perm)
	pl.HopBytesBound = bounds.HopBytesLowerBound(traffic, tor.CoresPerNode)
	pl.IdentityMakespan = place.Replay(mach, tor, traffic, ev.Identity())
	pl.Makespan = place.Replay(mach, tor, traffic, pl.Perm)
	return pl, nil
}

// ApplyPlacement relabels a rank-indexed traffic matrix into the
// placement's slot space: out[Perm[s]][Perm[d]] = traffic[s][d], sized
// to the torus's rank slots. This is the layer that makes a chosen
// permutation reorder the rank→node assignment seen by the machine
// models, whose natural order packs consecutive slots onto nodes.
func ApplyPlacement(pl Placement, traffic [][]float64) [][]float64 {
	padded := traffic
	if len(traffic) < len(pl.Perm) {
		padded = make([][]float64, len(pl.Perm))
		for i := range padded {
			padded[i] = make([]float64, len(pl.Perm))
			if i < len(traffic) {
				copy(padded[i], traffic[i])
			}
		}
	}
	return place.Apply(pl.Perm, padded)
}

// TrafficMatrix returns the simulation's measured src×dst traffic in
// bytes, summed over phases (send-side counts, so each message is
// counted once) — the input AutotunePlacement consumes. Errors when
// the simulation is not observed.
func (s *Simulation) TrafficMatrix() ([][]float64, error) {
	if s.observer == nil {
		return nil, errNotObserved
	}
	return place.Traffic(s.CommMatrix()), nil
}

// OptimizePlacement runs the placement autotuner on this simulation's
// measured communication matrix for the named machine model, stamps
// the outcome on the run's report footer (hop-bytes measured versus
// optimized) and on the live metrics gauges comm.hops.measured /
// comm.hops.optimized, and returns the winning placement with all
// trial results. Requires an observed simulation that has Run at least
// one step.
func (s *Simulation) OptimizePlacement(machName MachineName, seed uint64) (Placement, []PlacementTuneResult, error) {
	traffic, err := s.TrafficMatrix()
	if err != nil {
		return Placement{}, nil, err
	}
	pl, trials, err := AutotunePlacement(traffic, machName, seed)
	if err != nil {
		return Placement{}, nil, err
	}
	s.stampPlacement(pl)
	return pl, trials, nil
}

// stampPlacement publishes a placement outcome to the report footer
// and the live gauges.
func (s *Simulation) stampPlacement(pl Placement) {
	if s.report != nil {
		s.report.PlacementAlgorithm = pl.Algorithm
		s.report.HopBytesMeasured = pl.IdentityHopBytes
		s.report.HopBytesOptimized = pl.HopBytes
		s.report.HopBytesBound = pl.HopBytesBound
	}
	if s.observer != nil {
		s.observer.Metrics.Gauge("comm.hops.measured").Set(int64(pl.IdentityHopBytes))
		s.observer.Metrics.Gauge("comm.hops.optimized").Set(int64(pl.HopBytes))
	}
}
