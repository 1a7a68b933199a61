// Command sweep measures real wall-clock execution of the
// communication-avoiding algorithm over a range of replication factors
// on the goroutine runtime — the laptop-scale counterpart of the paper's
// Figure 2 — and can also autotune c, the strategy the paper suggests as
// future work.
//
// Example:
//
//	sweep -n 2048 -p 64 -cs 1,2,4,8 -steps 5
//	sweep -n 4096 -p 64 -dim 1 -cutoff 4 -cs 1,2,4 -steps 5
//	sweep -n 2048 -p 64 -autotune
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	nbody "repro"
	"repro/internal/obs/record"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		n          = flag.Int("n", 2048, "number of particles")
		p          = flag.Int("p", 64, "number of ranks")
		dim        = flag.Int("dim", 2, "spatial dimension")
		cutoff     = flag.Float64("cutoff", 0, "cutoff radius (0 = all pairs)")
		steps      = flag.Int("steps", 5, "timesteps per configuration")
		workers    = flag.Int("workers", 0, "intra-rank force workers per rank (0 = spread GOMAXPROCS over ranks)")
		csFlag     = flag.String("cs", "1,2,4,8", "comma-separated replication factors")
		autotune   = flag.Bool("autotune", false, "pick c automatically instead of sweeping")
		autotuneW  = flag.Bool("autotune-workers", false, "pick the worker-pool width automatically instead of sweeping")
		autotuneP  = flag.Bool("autotune-placement", false, "after each configuration, optimize the rank->node torus placement of its measured matrix and print the per-c improvement")
		machine    = flag.String("machine", "generic", "machine model for -autotune-placement: generic, hopper, intrepid")
		traceOut   = flag.String("trace-out", "", "write one Chrome trace per configuration, with .c<N> inserted before the extension")
		metricsOut = flag.String("metrics-out", "", "write one metrics snapshot per configuration, with .c<N> inserted before the extension")
		recordOut  = flag.String("record-out", "", "stream one per-step flight recording (JSON lines) per configuration, with .c<N> inserted before the extension; a .gz suffix gzip-compresses")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		httpAddr   = flag.String("http", "", "serve the live telemetry hub on this address; the hub re-attaches to each configuration as the sweep progresses")

		ranksPerProc = flag.Int("ranks-per-proc", 0, "span each configuration across OS processes, this many ranks per process (0 = all ranks in-process); requires -rendezvous")
		rendezvous   = flag.String("rendezvous", "", "mesh rendezvous address (host:port for TCP, a path or unix:path for unix sockets); start every process by hand with identical flags — sweep does not self-spawn")
	)
	flag.Parse()

	var proc *nbody.ProcGroup
	if *ranksPerProc > 0 {
		if *rendezvous == "" {
			log.Fatal("-ranks-per-proc requires -rendezvous: start p/ranks-per-proc sweep processes by hand, each with the same flags")
		}
		if *autotune || *autotuneW {
			// Autotuning picks the next configuration from measured wall
			// time, which differs across processes — the mesh members would
			// diverge on the first disagreement.
			log.Fatal("-autotune and -autotune-workers are incompatible with -ranks-per-proc")
		}
		if *p%*ranksPerProc != 0 {
			log.Fatalf("-ranks-per-proc %d does not divide -p %d", *ranksPerProc, *p)
		}
		var err error
		proc, err = nbody.JoinProcs(*rendezvous, *p / *ranksPerProc, *ranksPerProc)
		if err != nil {
			log.Fatal(err)
		}
		defer proc.Close()
		if proc.ID() != 0 {
			// Followers stay quiet and write no files: the merged report
			// and every output plane live on proc 0. The sweep loop itself
			// (the c values, their order, infeasibility skips) is derived
			// from the shared flag set, so all processes walk it in
			// lockstep.
			quiet = true
			*pprofAddr, *httpAddr = "", ""
			*traceOut, *metricsOut, *recordOut = "", "", ""
		}
	} else if *rendezvous != "" {
		log.Fatal("-rendezvous requires -ranks-per-proc")
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		say("pprof serving on http://%s/debug/pprof/\n", *pprofAddr)
	}

	cfg := nbody.Config{N: *n, P: *p, Workers: *workers, Dim: *dim, Cutoff: *cutoff, Lattice: *cutoff > 0, Proc: proc}
	if *traceOut != "" || *metricsOut != "" || *httpAddr != "" || *recordOut != "" || *autotuneP {
		cfg.Observe = &nbody.ObserveOptions{}
	}

	// One hub outlives the whole sweep; each configuration's simulation
	// attaches its observer before running, so a scraper watching the
	// address sees every run in turn.
	var hub *nbody.LiveServer
	if *httpAddr != "" {
		hub = nbody.NewLiveHub()
		bound, err := hub.Start(*httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer hub.Close()
		say("live telemetry on http://%s/\n", bound)
	}

	if *autotuneW {
		best, results, err := nbody.AutotuneWorkers(cfg, *steps, nil)
		if err != nil {
			log.Fatal(err)
		}
		say("%-12s %14s\n", "workers", "time/step")
		for _, r := range results {
			if r.Err != nil {
				say("workers=%-4d %14s (%v)\n", r.Workers, "-", r.Err)
				continue
			}
			say("workers=%-4d %14v\n", r.Workers, r.PerStep)
		}
		say("autotuned worker-pool width: workers=%d\n", best)
		return
	}

	if *autotune {
		best, results, err := nbody.AutotuneC(cfg, *steps, nil)
		if err != nil {
			log.Fatal(err)
		}
		say("%-6s %14s\n", "c", "time/step")
		for _, r := range results {
			if r.Err != nil {
				say("c=%-4d %14s (%v)\n", r.C, "-", r.Err)
				continue
			}
			say("c=%-4d %14v\n", r.C, r.PerStep)
		}
		say("autotuned replication factor: c=%d\n", best)
		return
	}

	var cs []int
	for _, tok := range strings.Split(*csFlag, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			log.Fatalf("bad -cs entry %q: %v", tok, err)
		}
		cs = append(cs, c)
	}

	say("real-execution sweep: n=%d p=%d dim=%d cutoff=%g steps=%d\n",
		*n, *p, *dim, *cutoff, *steps)
	if *autotuneP {
		say("%-6s %14s %16s %14s %16s %16s %8s %8s\n", "c", "time/step", "S (msg events)", "W (bytes)",
			"hopB identity", "hopB optimized", "better", "placer")
	} else {
		say("%-6s %14s %16s %14s\n", "c", "time/step", "S (msg events)", "W (bytes)")
	}
	for _, c := range cs {
		run := cfg
		run.C = c
		sim, err := nbody.New(run)
		if err != nil {
			say("c=%-4d infeasible: %v\n", c, err)
			continue
		}
		if hub != nil {
			if err := sim.AttachLive(hub); err != nil {
				log.Fatalf("c=%d: %v", c, err)
			}
		}
		var recordSink io.WriteCloser
		var recordPath string
		if *recordOut != "" {
			recordPath = perConfigPath(*recordOut, c)
			recordSink, err = record.OpenSink(recordPath)
			if err != nil {
				log.Fatalf("c=%d: %v", c, err)
			}
			if err := sim.Recorder().StreamTo(recordSink); err != nil {
				log.Fatalf("c=%d: %v", c, err)
			}
		}
		start := time.Now()
		if err := sim.Run(*steps); err != nil {
			log.Fatalf("c=%d: %v", c, err)
		}
		per := time.Since(start) / time.Duration(*steps)
		rep := sim.Report()
		if *autotuneP {
			pl, _, err := sim.OptimizePlacement(nbody.MachineName(*machine), 1)
			if err != nil {
				log.Fatalf("c=%d: %v", c, err)
			}
			say("c=%-4d %14v %16d %14d %16.0f %16.0f %7.1f%% %8s\n",
				c, per, rep.S()/int64(*steps), rep.W()/int64(*steps),
				pl.IdentityHopBytes, pl.HopBytes, 100*pl.Improvement(), pl.Algorithm)
		} else {
			say("c=%-4d %14v %16d %14d\n", c, per, rep.S()/int64(*steps), rep.W()/int64(*steps))
		}
		if *traceOut != "" {
			path := perConfigPath(*traceOut, c)
			if err := writeFile(path, sim.WriteTrace); err != nil {
				log.Fatalf("c=%d: %v", c, err)
			}
			say("       trace written to %s\n", path)
		}
		if *metricsOut != "" {
			path := perConfigPath(*metricsOut, c)
			if err := writeFile(path, sim.WriteMetrics); err != nil {
				log.Fatalf("c=%d: %v", c, err)
			}
			say("       metrics written to %s\n", path)
		}
		if recordSink != nil {
			if err := sim.Recorder().CloseStream(); err != nil {
				log.Fatalf("c=%d: %v", c, err)
			}
			if err := recordSink.Close(); err != nil {
				log.Fatalf("c=%d: %v", c, err)
			}
			say("       recording written to %s\n", recordPath)
		}
	}
}

// quiet mutes the sweep's stdout reporting; follower processes of a
// multi-process sweep set it so only proc 0 speaks.
var quiet bool

// say is fmt.Printf gated on quiet.
func say(format string, args ...any) {
	if !quiet {
		fmt.Printf(format, args...)
	}
}

// perConfigPath inserts ".c<N>" before the extension: run.json → run.c4.json.
func perConfigPath(path string, c int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.c%d%s", strings.TrimSuffix(path, ext), c, ext)
}

func writeFile(path string, write func(w io.Writer) error) error {
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
