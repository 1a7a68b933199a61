// Package spec reads BENCHMARK.json, the benchmark's single list of
// workloads (with the reason each was chosen), metrics (name, unit,
// direction, and for end-to-end metrics the bound a change may worsen
// them by) and run length.
package spec

import (
	"encoding/json"
	"fmt"
	"os"
)

// File is the name of the spec at the repository root.
const File = "BENCHMARK.json"

// Metric is one end_to_end or per_layer entry. Bound is 0 for per-layer
// metrics.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// Workload is one workloads entry.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is the parsed BENCHMARK.json.
type Spec struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Load reads and parses the spec at path.
func Load(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Workload returns the entry named name.
func (s Spec) Workload(name string) (Workload, error) {
	var names []string
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
