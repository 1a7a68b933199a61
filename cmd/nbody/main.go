// Command nbody runs a particle simulation with one of the paper's
// parallel decompositions on the goroutine message-passing runtime and
// prints the per-phase communication report.
//
// Example:
//
//	nbody -n 1024 -p 64 -c 4 -steps 20 -verify
//	nbody -n 4096 -p 64 -c 2 -dim 1 -cutoff 4 -steps 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	nbody "repro"
	"repro/internal/obs/record"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nbody: ")
	var (
		n           = flag.Int("n", 1024, "number of particles")
		p           = flag.Int("p", 16, "number of ranks (goroutines)")
		c           = flag.Int("c", 1, "replication factor")
		workers     = flag.Int("workers", 0, "intra-rank force workers per rank (0 = spread GOMAXPROCS over ranks)")
		dim         = flag.Int("dim", 2, "spatial dimension (1 or 2)")
		cutoff      = flag.Float64("cutoff", 0, "cutoff radius (0 = all pairs)")
		steps       = flag.Int("steps", 10, "timesteps to run")
		dt          = flag.Float64("dt", 1e-3, "timestep length")
		boxL        = flag.Float64("box", 16, "box side length")
		seed        = flag.Uint64("seed", 1, "init seed")
		algName     = flag.String("alg", "auto", "algorithm: auto, ca-all-pairs, ca-cutoff, particle, force, naive, midpoint")
		boundary    = flag.String("boundary", "reflective", "boundary condition: reflective or periodic")
		collectives = flag.String("collectives", "tree", "collective algorithm: tree, flat, ring")
		lattice     = flag.Bool("lattice", false, "initialize particles on a jittered lattice")
		verify      = flag.Bool("verify", false, "verify against the serial reference after the run")
		observe     = flag.Int("observe", 0, "sample energies every N steps and print the series")
		trajFile    = flag.String("traj", "", "write an XYZ trajectory to this file (a frame per -observe interval, or start/end)")
		saveFile    = flag.String("save", "", "write a checkpoint to this file after the run")
		loadFile    = flag.String("load", "", "resume from a checkpoint file (overrides most flags)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event timeline (one track per rank) to this file; open in Perfetto")
		traceJSONL  = flag.String("trace-jsonl", "", "write the event timeline as JSON lines to this file")
		traceCap    = flag.Int("trace-events", 0, "per-rank event ring capacity (0 = default 65536)")
		metricsOut  = flag.String("metrics-out", "", "write the metrics registry snapshot as JSON to this file (flushed every second during the run)")
		recordOut   = flag.String("record-out", "", "stream the per-step flight recording (JSON lines, one sample per step) to this file; a .gz suffix gzip-compresses it")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		httpAddr    = flag.String("http", "", "serve the live telemetry hub on this address (e.g. localhost:8080): /metrics, /snapshot.json, /trace, /matrix.json, /debug/pprof")
		matrixOut   = flag.Bool("matrix", false, "print the per-phase src x dst communication matrix after the run")
		matrixFile  = flag.String("matrix-out", "", "write the communication-matrix snapshot as JSON to this file after the run (feeds the placement optimizer offline)")

		autoPlace    = flag.Bool("autotune-placement", false, "after the run, search rank->node torus placements minimizing hop-weighted bytes of the measured matrix and print the trial table")
		placementIn  = flag.String("placement", "", "evaluate a saved placement JSON file against this run's measured matrix")
		placementOut = flag.String("placement-out", "", "write the optimized placement as JSON to this file (implies -autotune-placement)")
		machineName  = flag.String("machine", "generic", "machine model for placement optimization: generic, hopper, intrepid")

		ranksPerProc = flag.Int("ranks-per-proc", 0, "span the simulation across OS processes, this many ranks per process (0 = all ranks in-process); requires -rendezvous or -spawn")
		rendezvous   = flag.String("rendezvous", "", "mesh rendezvous address: host:port for TCP, a filesystem path (or unix:path) for unix sockets; every process of one run names the same address")
		spawn        = flag.Bool("spawn", false, "spawn the p/ranks-per-proc - 1 follower processes automatically (re-executes this binary over loopback); the spawner becomes proc 0")
	)
	flag.Parse()

	var proc *nbody.ProcGroup
	if *ranksPerProc > 0 {
		if *loadFile != "" {
			log.Fatal("-load is not supported with -ranks-per-proc (distributed resume)")
		}
		proc = setupMesh(*p, *ranksPerProc, *rendezvous, *spawn)
		defer proc.Close()
	} else if *spawn || *rendezvous != "" {
		log.Fatal("-spawn and -rendezvous require -ranks-per-proc")
	}
	follower := proc != nil && proc.ID() != 0
	if follower {
		// Followers compute their share of the ranks and stay quiet:
		// every output plane (files, HTTP, report prints, verification)
		// lives on proc 0, which holds the merged state. Observation
		// stays on wherever the shared flag set enables it, so follower
		// traffic reaches proc 0's merged comm matrix.
		quiet = true
		*pprofAddr, *httpAddr = "", ""
		*trajFile, *saveFile = "", ""
		*traceOut, *traceJSONL, *metricsOut, *recordOut = "", "", "", ""
		*matrixOut = false
		*matrixFile, *placementIn, *placementOut = "", "", ""
		*autoPlace = false
		*verify = false
	}
	if *placementOut != "" {
		*autoPlace = true
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		say("pprof serving on http://%s/debug/pprof/\n", *pprofAddr)
	}
	observing := *traceOut != "" || *traceJSONL != "" || *metricsOut != "" || *httpAddr != "" || *matrixOut || *recordOut != "" ||
		*matrixFile != "" || *autoPlace || *placementIn != ""

	cfg := nbody.Config{
		N: *n, P: *p, C: *c, Workers: *workers, Dim: *dim, Cutoff: *cutoff,
		DT: *dt, BoxLength: *boxL, Seed: *seed, Lattice: *lattice,
		Proc: proc,
	}
	if observing {
		cfg.Observe = &nbody.ObserveOptions{TimelineCapacity: *traceCap}
	}
	switch *algName {
	case "auto":
		cfg.Algorithm = nbody.Auto
	case "ca-all-pairs":
		cfg.Algorithm = nbody.CAAllPairs
	case "ca-cutoff":
		cfg.Algorithm = nbody.CACutoff
	case "particle":
		cfg.Algorithm = nbody.ParticleDecomp
	case "force":
		cfg.Algorithm = nbody.ForceDecomp
	case "naive":
		cfg.Algorithm = nbody.NaiveAllGather
	case "midpoint":
		cfg.Algorithm = nbody.Midpoint
	default:
		log.Fatalf("unknown -alg %q", *algName)
	}
	switch *boundary {
	case "reflective":
		cfg.Boundary = nbody.Reflective
	case "periodic":
		cfg.Boundary = nbody.Periodic
	default:
		log.Fatalf("unknown -boundary %q", *boundary)
	}
	switch *collectives {
	case "tree":
		cfg.Collectives = nbody.Tree
	case "flat":
		cfg.Collectives = nbody.Flat
	case "ring":
		cfg.Collectives = nbody.Ring
	default:
		log.Fatalf("unknown -collectives %q", *collectives)
	}

	var sim *nbody.Simulation
	var err error
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		if err != nil {
			log.Fatal(err)
		}
		sim, err = nbody.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if observing {
			sim.EnableObservation(&nbody.ObserveOptions{TimelineCapacity: *traceCap})
		}
		cfg = sim.Config()
		say("resumed from %s at step %d\n", *loadFile, sim.Steps())
	} else {
		sim, err = nbody.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	if *httpAddr != "" {
		hub, bound, err := sim.ServeLive(*httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer hub.Close()
		say("live telemetry on http://%s/ (metrics, snapshot.json, trace, matrix.json, series.json, debug/pprof)\n", bound)
	}

	var recordSink io.WriteCloser
	if *recordOut != "" {
		recordSink, err = record.OpenSink(*recordOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Recorder().StreamTo(recordSink); err != nil {
			log.Fatal(err)
		}
	}

	var traj *nbody.TrajectoryWriter
	if *trajFile != "" {
		f, err := os.Create(*trajFile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := traj.Flush(); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			say("trajectory (%d frames) written to %s\n", traj.Frames(), *trajFile)
		}()
		traj = nbody.NewTrajectoryWriter(f)
		if err := sim.WriteFrame(traj); err != nil {
			log.Fatal(err)
		}
	}

	// Periodic metrics flush: rewrite the snapshot file once a second
	// while the run progresses, so long runs are inspectable mid-flight.
	var stopFlush chan struct{}
	if *metricsOut != "" {
		stopFlush = make(chan struct{})
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := writeMetricsFile(sim, *metricsOut); err != nil {
						log.Printf("metrics flush: %v", err)
					}
				case <-stopFlush:
					return
				}
			}
		}()
	}

	start := time.Now()
	if *observe > 0 {
		say("%-8s %12s %12s %12s %12s\n", "step", "kinetic", "potential", "total", "temperature")
		for done := 0; done < *steps; {
			chunk := *observe
			if done+chunk > *steps {
				chunk = *steps - done
			}
			if err := sim.Run(chunk); err != nil {
				log.Fatal(err)
			}
			done += chunk
			s := sim.Observe()
			say("%-8d %12.6f %12.6f %12.6f %12.6f\n", s.Step, s.Kinetic, s.Potential, s.Total, s.Temperature)
			if traj != nil {
				if err := sim.WriteFrame(traj); err != nil {
					log.Fatal(err)
				}
			}
		}
	} else {
		if err := sim.Run(*steps); err != nil {
			log.Fatal(err)
		}
		if traj != nil {
			if err := sim.WriteFrame(traj); err != nil {
				log.Fatal(err)
			}
		}
	}
	elapsed := time.Since(start)

	// Placement optimization runs before the report prints: the chosen
	// placement's hop-bytes land in the report footer.
	var bestPlace nbody.Placement
	var placeTrials []nbody.PlacementTuneResult
	if *autoPlace {
		bestPlace, placeTrials, err = sim.OptimizePlacement(nbody.MachineName(*machineName), *seed)
		if err != nil {
			log.Fatal(err)
		}
	}

	say("algorithm=%v p=%d c=%d n=%d steps=%d dim=%d cutoff=%g\n",
		cfg.Algorithm, cfg.P, cfg.C, cfg.N, *steps, cfg.Dim, cfg.Cutoff)
	say("wall time: %v (%v/step)\n\n", elapsed, elapsed/time.Duration(max(1, *steps)))
	say("%s", sim.Report())

	if *matrixOut {
		say("\n%s", sim.CommMatrix().Table())
	}
	if *matrixFile != "" {
		if err := writeMatrixFile(sim, *matrixFile); err != nil {
			log.Fatal(err)
		}
		say("communication matrix written to %s\n", *matrixFile)
	}
	if *autoPlace {
		say("\nplacement trials (%s):\n", *machineName)
		say("%-10s %16s %14s %12s\n", "algorithm", "hop-bytes", "makespan(s)", "search")
		for _, tr := range placeTrials {
			say("%-10s %16.0f %14.3g %12s\n", tr.Algorithm, tr.HopBytes, tr.Makespan, tr.Search.Round(time.Microsecond))
		}
		say("\n%s", bestPlace)
		if *placementOut != "" {
			if err := nbody.SavePlacement(*placementOut, bestPlace); err != nil {
				log.Fatal(err)
			}
			say("placement written to %s\n", *placementOut)
		}
	}
	if *placementIn != "" {
		pl, err := nbody.LoadPlacement(*placementIn)
		if err != nil {
			log.Fatal(err)
		}
		traffic, err := sim.TrafficMatrix()
		if err != nil {
			log.Fatal(err)
		}
		pl, err = nbody.EvaluatePlacement(pl, traffic)
		if err != nil {
			log.Fatal(err)
		}
		say("\nsaved placement %s re-evaluated on this run's matrix:\n%s", *placementIn, pl)
	}

	if stopFlush != nil {
		close(stopFlush)
		if err := writeMetricsFile(sim, *metricsOut); err != nil {
			log.Fatal(err)
		}
		say("metrics snapshot written to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := writeTimeline(*traceOut, sim.WriteTrace); err != nil {
			log.Fatal(err)
		}
		say("Chrome trace (%d ranks, %d events dropped) written to %s — open at https://ui.perfetto.dev\n",
			sim.Timeline().Ranks(), sim.Timeline().Dropped(), *traceOut)
	}
	if *traceJSONL != "" {
		if err := writeTimeline(*traceJSONL, sim.Timeline().WriteJSONL); err != nil {
			log.Fatal(err)
		}
		say("JSONL timeline written to %s\n", *traceJSONL)
	}
	if recordSink != nil {
		if err := sim.Recorder().CloseStream(); err != nil {
			log.Fatal(err)
		}
		if err := recordSink.Close(); err != nil {
			log.Fatal(err)
		}
		say("flight recording (%d steps) written to %s\n", sim.Recorder().Total(), *recordOut)
	}

	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		say("checkpoint written to %s\n", *saveFile)
	}

	if *verify {
		worst, err := sim.VerifySerial()
		if err != nil {
			log.Fatal(err)
		}
		say("\nverification vs. serial reference: worst deviation %.3g\n", worst)
		if worst > 1e-9 {
			say("verification FAILED\n")
			os.Exit(1)
		}
		say("verification OK\n")
	}
}

// quiet mutes the run's stdout reporting; follower processes of a
// multi-process run set it so only proc 0 speaks.
var quiet bool

// say is fmt.Printf gated on quiet.
func say(format string, args ...any) {
	if !quiet {
		fmt.Printf(format, args...)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// writeMetricsFile rewrites path with the simulation's current metrics
// snapshot (safe mid-run: the registry is concurrency-safe).
func writeMetricsFile(sim *nbody.Simulation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMatrixFile writes the simulation's communication-matrix
// snapshot as JSON — the format -placement consumes and the live hub
// serves at /matrix.json.
func writeMatrixFile(sim *nbody.Simulation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sim.CommMatrix()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTimeline creates path and streams a timeline export into it.
func writeTimeline(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
