// Command perfbench is the repository's benchmark: it runs one named
// workload through the public nbody API (New, JoinProcs, Simulation.Run
// in fixed-length chunks), checks every output, and prints its metrics
// by name and unit, ending with one JSON result line.
//
//	perfbench --workload allpairs-2d --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: it measures the per-layer metrics from the
// timestep loops' trace.Report, the program's observer (registry,
// timeline) and direct probes of each layer's public functions, records
// benchmark-side spans around every call into a layer, and writes the
// spans to .bench_build/spans/<workload>-seed<n>.json. It runs from the
// repository root and reads BENCHMARK.json there for the workloads and
// metrics; workloads.go holds each workload's configuration and
// metrics.go the end-to-end metric each per-layer metric should move.
// Build and run it with perfbench/run.sh; compare two revisions with
// abcompare. Its own tests run with `cd perfbench && go test ./...`: the
// directory is a module of its own, so the root `go test ./...` does not
// reach it.
//
// cmd/bench, the BENCH_PR*.json baselines and the make benchdiff and
// benchsmoke gates are left as they are, because make check uses them;
// retiring them in favour of this benchmark is a separate change.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/perfbench/spec"
	"repro/perfbench/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name (required)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the initial particles derive from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload == "":
		return o, fmt.Errorf("--workload is required")
	case o.seed == 0:
		return o, fmt.Errorf("--seed must be positive")
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive")
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

// run executes one benchmark invocation and returns the exit code: 0
// only when every operation and check succeeded and the result line was
// printed.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	sp, err := spec.Load(spec.File)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ws, err := sp.Workload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	minChunks := stats.SamplesFor(0.90) // ten samples beyond the p90
	defer os.RemoveAll(sockDir)

	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, ws.Why)
	fmt.Fprintf(stdout, "config: n=%d p=%d c=%d alg=%v dim=%d boundary=%v cutoff=%g dt=%g lattice=%v procs=%d chunk=%d\n",
		w.cfg.N, w.cfg.P, w.cfg.C, w.cfg.Algorithm, w.cfg.Dim, w.cfg.Boundary, w.cfg.Cutoff, w.cfg.DT,
		w.cfg.Lattice, w.procs, w.chunk)
	st := pinProcs(stdout, w.name, o.seed)

	budget := time.Duration(o.seconds * float64(time.Second))
	var t tally
	var vals map[string]float64
	var defs []spec.Metric
	if o.trace == 0 {
		defs = sp.EndToEnd
		vals, err = runEndToEnd(stdout, w, o.seed, budget, minChunks, &t)
	} else {
		defs = sp.PerLayer
		vals, err = runTraced(stdout, w, o.seed, budget, minChunks, spansPath(w.name, o.seed), st, &t)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// failed_frac is printed but kept out of the result line's metrics:
	// it reads 0 on a healthy run, and the line's attempted and failed
	// carry it.
	fmt.Fprintf(stdout, "  %-32s %16.6g %-7s (%d failed of %d attempted)\n", "failed_frac",
		float64(t.failed)/float64(t.attempted), "ratio", t.failed, t.attempted)
	if err := emit(stdout, defs, vals, t.attempted, t.failed); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if t.failed > 0 {
		return 1
	}
	return 0
}

// spansPath is where the traced run writes its spans.
func spansPath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
}
