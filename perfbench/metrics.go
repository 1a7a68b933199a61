package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/perfbench/spec"
)

const (
	onCompute  = "step_ms on allpairs-2d, midpoint-2d"
	onCutoff   = "step_ms on cutoff-1d"
	onCounts   = "s_msgs_per_step, w_bytes_per_step on every workload"
	onKernels  = "step_ms, cpu_ms_per_step on allpairs-2d, cutoff-1d, midpoint-2d"
	onSockets  = "step_ms, cpu_ms_per_step on sockets-observed only"
	onBalance  = "step_ms_p90 on cutoff-1d, midpoint-2d"
	onObserved = "step_ms on sockets-observed"
)

// moves records, for each per-layer metric of BENCHMARK.json, which
// end-to-end metric on which workloads it should move, written down
// before any change is measured against it. BENCHMARK.json's entries
// carry only name, unit and direction, so the mapping lives here.
var moves = map[string]string{
	"core.compute_ms":        onCompute,
	"core.broadcast_ms":      onCompute,
	"core.skew_ms":           "step_ms on allpairs-2d, cutoff-1d",
	"core.shift_ms":          onCutoff,
	"core.reduce_ms":         onCompute,
	"core.reassign_ms":       onCutoff,
	"core.other_ms":          "step_ms on every workload",
	"core.compute_imbalance": onBalance,

	"comm.broadcast.msgs_per_step":  onCounts,
	"comm.broadcast.bytes_per_step": onCounts,
	"comm.skew.msgs_per_step":       onCounts,
	"comm.skew.bytes_per_step":      onCounts,
	"comm.shift.msgs_per_step":      onCounts,
	"comm.shift.bytes_per_step":     onCounts,
	"comm.reduce.msgs_per_step":     onCounts,
	"comm.reduce.bytes_per_step":    onCounts,
	"comm.reassign.msgs_per_step":   onCounts,
	"comm.reassign.bytes_per_step":  onCounts,
	"comm.mailbox_depth_p90":        onCutoff,
	"comm.msg_bytes_p50":            onCounts,
	"comm.typed.latency_us":         onCutoff,
	"comm.typed.mb_per_s":           onCutoff,
	"comm.typed.alpha_us":           onCutoff,
	"comm.typed.beta_ns_per_kb":     onCutoff,
	"comm.bcast_us":                 onCompute,
	"comm.reduce_us":                onCompute,

	"net.mesh_setup_ms":  "setup_s on sockets-observed",
	"net.latency_us":     onSockets,
	"net.mb_per_s":       onSockets,
	"net.alpha_us":       onSockets,
	"net.beta_ns_per_kb": onSockets,

	"phys.pairs_per_step":       onKernels,
	"phys.ns_per_pair":          onKernels,
	"phys.survivor_frac":        onKernels,
	"phys.pool_probe_busy_ms":   onKernels,
	"phys.pool_probe_imbalance": onBalance,

	"obs.overhead_frac":    onObserved,
	"obs.timeline_dropped": "stays 0 on every workload",
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric of defs by name and unit (in BENCHMARK.json's
// order, with the per-layer "moves" annotation), then the result line.
// A metric missing from vals is an error: the result line must carry
// every metric BENCHMARK.json names.
func emit(w io.Writer, defs []spec.Metric, vals map[string]float64, attempted, failed int64) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if m := moves[d.Name]; m != "" {
			fmt.Fprintf(w, "  %-32s %16.6g %-7s (%s is better; moves %s)\n", d.Name, v, d.Unit, d.Better, m)
		} else {
			fmt.Fprintf(w, "  %-32s %16.6g %-7s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		}
	}
	extra := make([]string, 0)
	for name := range vals {
		if !hasMetric(defs, name) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("unlisted metrics %v", extra)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func hasMetric(defs []spec.Metric, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
