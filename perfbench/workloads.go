package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	nbody "repro"
)

// workload is one committed configuration. Every workload uses the
// paper's repulsive 1/r² force (the Config default) and draws its
// initial particles from the run's seed.
type workload struct {
	name string
	cfg  nbody.Config
	// procs > 0 splits the ranks over that many members of a
	// unix-socket mesh, all inside this process.
	procs int
	// chunk is the number of steps per timed Run call.
	chunk int
	// verifySteps is the length of the VerifySerial check run and tol
	// the largest position deviation from the serial reference it
	// accepts.
	verifySteps int
	tol         float64
}

// workloads are the committed configurations of BENCHMARK.json's
// workloads, which says why each was chosen.
func workloads() []workload {
	return []workload{
		{
			name: "allpairs-2d",
			cfg: nbody.Config{N: 2048, P: 4, C: 2, Algorithm: nbody.CAAllPairs, Dim: 2,
				Boundary: nbody.Reflective},
			chunk: 2, verifySteps: 2, tol: 1e-9,
		},
		{
			name: "cutoff-1d",
			// DT is small enough that no particle crosses more than a
			// team width per step (1e-3 trips the loop's migration check).
			cfg: nbody.Config{N: 2048, P: 8, C: 2, Algorithm: nbody.CACutoff, Dim: 1,
				Boundary: nbody.Periodic, Lattice: true, Cutoff: 4, DT: 1e-5},
			chunk: 1, verifySteps: 2, tol: 1e-9,
		},
		{
			name: "midpoint-2d",
			cfg: nbody.Config{N: 1024, P: 9, Algorithm: nbody.Midpoint, Dim: 2,
				Boundary: nbody.Reflective, Lattice: true, Cutoff: 2},
			chunk: 1, verifySteps: 2, tol: 1e-9,
		},
		{
			name: "sockets-observed",
			// At n=512 a step takes ~1.3 ms and socket wake-up latency on
			// a shared host split run medians into two modes; n=1024 keeps
			// the wire path a large share of a steadier step.
			cfg: nbody.Config{N: 1024, P: 8, C: 2, Algorithm: nbody.CAAllPairs, Dim: 2,
				Boundary: nbody.Reflective, Observe: &nbody.ObserveOptions{}},
			procs: 2, chunk: 16, verifySteps: 2, tol: 1e-9,
		},
	}
}

// findWorkload returns the configuration of the BENCHMARK.json workload
// named name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("workload %q has no configuration", name)
}

// config returns the workload's configuration for one seed; observe
// overrides whether the run is observed.
func (w workload) config(seed uint64, observe bool) nbody.Config {
	cfg := w.cfg
	cfg.Seed = seed
	cfg.Observe = nil
	if observe {
		cfg.Observe = &nbody.ObserveOptions{}
	}
	return cfg
}

// group is one simulation as the benchmark drives it: a single
// in-process Simulation, or one Simulation per member of a socket mesh,
// all making the same collective Run calls.
type group struct {
	sims  []*nbody.Simulation
	procs []*nbody.ProcGroup
}

// sockDir holds the unix-socket rendezvous files; it lives inside the
// working directory so the benchmark writes nowhere else.
var (
	sockDir = filepath.Join(".bench_build", fmt.Sprintf("sock-%d", os.Getpid()))
	meshSeq atomic.Int64
)

// rendezvous returns a fresh unix-socket rendezvous address. The path
// stays relative so it fits the unix-socket path limit wherever the
// checkout lives.
func rendezvous() (string, error) {
	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return "", err
	}
	return "unix:" + filepath.Join(sockDir, fmt.Sprintf("m%d", meshSeq.Add(1))), nil
}

// joinMesh forms a mesh of procs members, ranksPerProc ranks each,
// returning the members indexed by proc id.
func joinMesh(procs, ranksPerProc int) ([]*nbody.ProcGroup, error) {
	addr, err := rendezvous()
	if err != nil {
		return nil, err
	}
	joined := make([]*nbody.ProcGroup, procs)
	err = parallel(procs, func(i int) error {
		pg, err := nbody.JoinProcs(addr, procs, ranksPerProc)
		joined[i] = pg
		return err
	})
	if err != nil {
		closeMesh(joined)
		return nil, fmt.Errorf("join mesh: %w", err)
	}
	members := make([]*nbody.ProcGroup, procs)
	for _, pg := range joined {
		members[pg.ID()] = pg
	}
	return members, nil
}

// closeMesh closes every member concurrently: an orderly close flushes
// queued frames toward peers that are closing too.
func closeMesh(members []*nbody.ProcGroup) {
	var wg sync.WaitGroup
	for _, pg := range members {
		if pg == nil {
			continue
		}
		wg.Add(1)
		go func(pg *nbody.ProcGroup) {
			defer wg.Done()
			_ = pg.Close() // teardown: a close error changes nothing the run reports
		}(pg)
	}
	wg.Wait()
}

// newGroup builds the simulation for cfg: directly, or over a freshly
// formed socket mesh when procs > 0. sp records spans around the calls
// into the layers (nil records nothing).
func newGroup(cfg nbody.Config, procs int, sp *spans, parent int) (*group, error) {
	if procs == 0 {
		var sim *nbody.Simulation
		err := sp.do("core.New", parent, -1, func(int) error {
			var err error
			sim, err = nbody.New(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		return &group{sims: []*nbody.Simulation{sim}}, nil
	}
	var members []*nbody.ProcGroup
	err := sp.do("net.JoinProcs", parent, -1, func(int) error {
		var err error
		members, err = joinMesh(procs, cfg.P/procs)
		return err
	})
	if err != nil {
		return nil, err
	}
	g := &group{sims: make([]*nbody.Simulation, procs), procs: members}
	// New dry-runs the configuration collectively, so every member
	// constructs at once.
	err = sp.do("core.New", parent, -1, func(int) error {
		return g.each(func(i int) error {
			c := cfg
			c.Proc = members[i]
			sim, err := nbody.New(c)
			g.sims[i] = sim
			return err
		})
	})
	if err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// each runs fn for every member concurrently and returns the first
// error.
func (g *group) each(fn func(i int) error) error { return parallel(len(g.sims), fn) }

// parallel runs fn(0..n-1) concurrently, waits for all, and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run advances every member by steps.
func (g *group) run(steps int) error {
	return g.each(func(i int) error { return g.sims[i].Run(steps) })
}

// lead is the member whose report, state and observer the benchmark
// reads: every member holds the same merged report and final state.
func (g *group) lead() *nbody.Simulation { return g.sims[0] }

func (g *group) close() { closeMesh(g.procs) }
