package nbody

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/record"
	"repro/internal/phys"
	"repro/internal/trace"
)

// Particle is a simulation particle: 52 bytes on the wire, unit mass,
// with position, velocity and a per-step force accumulator.
type Particle = phys.Particle

// Boundary selects the behavior at the box edge.
type Boundary = phys.Boundary

// Boundary conditions.
const (
	Reflective = phys.Reflective
	Periodic   = phys.Periodic
)

// PotentialKind selects the pair-interaction family.
type PotentialKind = phys.Potential

// Potential families: the paper's repulsive 1/r² force (default) and the
// Lennard-Jones 12-6 potential of production MD codes.
const (
	RepulsivePotential    = phys.Repulsive
	LennardJonesPotential = phys.LennardJones
)

// CollectiveAlg selects the collective implementation of the runtime.
type CollectiveAlg = comm.CollectiveAlg

// ProcGroup is one OS process's membership in a multi-process rank
// mesh; see JoinProcs.
type ProcGroup = comm.Proc

// ProcListener is a bound-but-unformed rendezvous for spawning
// follower processes; see ListenProcs.
type ProcListener = comm.ProcListener

// JoinProcs forms (or joins) a mesh of `procs` OS processes at the
// rendezvous address — "host:port" for TCP, a filesystem path (or
// "unix:path") for unix-domain sockets — each hosting ranksPerProc
// world ranks. The process that binds the address becomes proc 0;
// every process of one simulation must pass the same procs and
// ranksPerProc. Hand the result to Config.Proc (its WorldSize must
// equal Config.P) and Close it after the last run.
func JoinProcs(rendezvous string, procs, ranksPerProc int) (*ProcGroup, error) {
	return comm.JoinProcs(rendezvous, procs, ranksPerProc)
}

// ListenProcs binds the rendezvous address without waiting for peers,
// so a launcher can bind port 0, read Addr, spawn followers pointing
// at it, and then Accept to become proc 0.
func ListenProcs(rendezvous string, procs, ranksPerProc int) (*ProcListener, error) {
	return comm.ListenProcs(rendezvous, procs, ranksPerProc)
}

// Collective algorithms: binomial Tree (default), Flat linear (the
// paper's "no-tree" configuration), and Ring pipelines.
const (
	Tree = comm.Tree
	Flat = comm.Flat
	Ring = comm.Ring
)

// Algorithm selects the parallel decomposition.
type Algorithm int

const (
	// Auto picks CAAllPairs when Cutoff is zero and CACutoff otherwise.
	Auto Algorithm = iota
	// CAAllPairs is the communication-avoiding all-pairs algorithm
	// (Algorithm 1 of the paper).
	CAAllPairs
	// CACutoff is the communication-avoiding distance-limited algorithm
	// (Algorithm 2 and its 2D generalization). Requires Cutoff > 0.
	CACutoff
	// ParticleDecomp is Plimpton's particle decomposition, the c = 1
	// degenerate case.
	ParticleDecomp
	// ForceDecomp is Plimpton's force decomposition, the c = √p extreme.
	ForceDecomp
	// NaiveAllGather is the textbook baseline that allgathers all
	// particles every step (Section II-B).
	NaiveAllGather
	// Midpoint is the midpoint method (Section II-D related work): pair
	// interactions are computed by the processor owning the pair's
	// midpoint, halving the import region at the cost of a force-return
	// phase. 1D and 2D reflective boxes, requires a cutoff.
	Midpoint
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case CAAllPairs:
		return "ca-all-pairs"
	case CACutoff:
		return "ca-cutoff"
	case ParticleDecomp:
		return "particle-decomposition"
	case ForceDecomp:
		return "force-decomposition"
	case NaiveAllGather:
		return "naive-allgather"
	case Midpoint:
		return "midpoint"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config describes a simulation. Zero values get sensible defaults (see
// field comments).
type Config struct {
	// N is the number of particles (required).
	N int
	// P is the number of parallel ranks, each run as a goroutine
	// (default 1).
	P int
	// C is the replication factor, 1 ≤ c ≤ √p for all-pairs runs
	// (default 1). The number of teams p/c must divide N for all-pairs.
	C int
	// Algorithm selects the decomposition (default Auto).
	Algorithm Algorithm
	// Dim is the spatial dimension, 1 or 2 (default 2).
	Dim int
	// BoxLength is the simulation box side (default 16).
	BoxLength float64
	// Boundary is the edge behavior (default Reflective, as in the
	// paper).
	Boundary Boundary
	// Cutoff is the interaction radius; 0 means all pairs interact.
	Cutoff float64
	// DT is the timestep length (default 1e-3).
	DT float64
	// Seed drives the deterministic particle initialization (default 1).
	Seed uint64
	// Potential selects the interaction family (default
	// RepulsivePotential, the paper's workload).
	Potential PotentialKind
	// ForceK scales the repulsive 1/r² force (default 1); Softening is
	// the Plummer softening length (default 1e-3).
	ForceK    float64
	Softening float64
	// Epsilon and Sigma parameterize the Lennard-Jones potential
	// (defaults 1 and BoxLength/16).
	Epsilon float64
	Sigma   float64
	// Collectives selects the runtime's collective algorithm (default
	// Tree).
	Collectives CollectiveAlg
	// Lattice, when true, initializes particles on a jittered lattice
	// (near-uniform density, as the paper's cutoff experiments assume)
	// instead of uniformly at random.
	Lattice bool
	// Clusters, when positive, initializes particles in that many
	// Gaussian blobs of width ClusterSigma (default 1/16 of the box) —
	// the non-uniform workload that stresses spatial load balance.
	// Overrides Lattice.
	Clusters     int
	ClusterSigma float64
	// Overlap enables communication/computation overlap in the shift
	// loops (all-pairs and cutoff; double buffering with nonblocking
	// sends) — the optimization production MD codes add on top of the
	// paper's synchronous algorithm.
	Overlap bool
	// Workers is the intra-rank worker-pool width for the force phase:
	// each rank tiles its force accumulation across this many
	// goroutines by disjoint target ranges, so results are
	// bitwise-identical for every width. 0 (the default) spreads
	// GOMAXPROCS evenly over the P ranks, clamped to 1 once the ranks
	// alone cover the machine. Explicit values trade off against P:
	// the run keeps P × Workers goroutines compute-busy, so P ×
	// Workers > GOMAXPROCS oversubscribes the machine — the force
	// phase then time-slices instead of speeding up, and latency-bound
	// phases (shifts, reductions) suffer scheduling jitter. Prefer
	// raising Workers only while P × Workers ≤ GOMAXPROCS; negative
	// values are rejected.
	Workers int
	// Observe, when non-nil, records a per-rank event timeline and a
	// metrics registry during runs; retrieve them with
	// Simulation.Timeline and Simulation.MetricsSnapshot. Nil (the
	// default) keeps the hot paths instrumentation-free.
	Observe *ObserveOptions
	// Proc, when non-nil, spans runs across the OS processes of a
	// socket mesh (JoinProcs): this process executes only its share of
	// the P ranks and remote traffic travels TCP or unix sockets.
	// Proc.WorldSize() must equal P, and every process of the mesh must
	// construct an identical Simulation and make the same Run calls —
	// runs are collective. Results, reports and measured S/W are
	// bit-identical to the single-process run.
	Proc *ProcGroup
}

func (c Config) withDefaults() Config {
	if c.P == 0 {
		c.P = 1
	}
	if c.C == 0 {
		c.C = 1
	}
	if c.Dim == 0 {
		c.Dim = 2
	}
	if c.BoxLength == 0 {
		c.BoxLength = 16
	}
	if c.DT == 0 {
		c.DT = 1e-3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ForceK == 0 {
		c.ForceK = 1
	}
	if c.Softening == 0 {
		c.Softening = 1e-3
	}
	if c.Potential == LennardJonesPotential {
		if c.Epsilon == 0 {
			c.Epsilon = 1
		}
		if c.Sigma == 0 {
			c.Sigma = c.BoxLength / 16
		}
	}
	return c
}

func (c Config) box() phys.Box {
	return phys.NewBox(c.BoxLength, c.Dim, c.Boundary)
}

func (c Config) law() phys.Law {
	return phys.Law{
		Kind: c.Potential, K: c.ForceK, Epsilon: c.Epsilon, Sigma: c.Sigma,
		Softening: c.Softening, Cutoff: c.Cutoff,
	}
}

func (c Config) params(steps int) core.Params {
	return core.Params{
		P:       c.P,
		C:       c.C,
		Law:     c.law(),
		Box:     c.box(),
		DT:      c.DT,
		Steps:   steps,
		Options: comm.Options{Collectives: c.Collectives},
		Overlap: c.Overlap,
		Workers: c.Workers,
		Proc:    c.Proc,
	}
}

// resolveAlgorithm maps Auto onto a concrete decomposition.
func (c Config) resolveAlgorithm() Algorithm {
	if c.Algorithm != Auto {
		return c.Algorithm
	}
	if c.Cutoff > 0 {
		return CACutoff
	}
	return CAAllPairs
}

// Simulation owns a particle set and advances it in parallel.
type Simulation struct {
	cfg       Config
	particles []Particle
	report    *trace.Report
	observer  *obs.Observer
	recorder  *record.Recorder
	steps     int
}

// errNotObserved is returned by the observability exporters when the
// simulation was created without Config.Observe.
var errNotObserved = fmt.Errorf("nbody: simulation not observed (set Config.Observe)")

// New validates cfg, initializes the particle set deterministically from
// the seed, and returns a ready simulation. The configuration is also
// dry-run validated so infeasible (p, c, n) combinations fail here
// rather than mid-run.
func New(cfg Config) (*Simulation, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("nbody: config needs N > 0")
	}
	if cfg.Dim != 1 && cfg.Dim != 2 {
		return nil, fmt.Errorf("nbody: dimension must be 1 or 2, got %d", cfg.Dim)
	}
	if cfg.Cutoff < 0 || cfg.Cutoff > cfg.BoxLength {
		return nil, fmt.Errorf("nbody: cutoff %g outside [0, box length %g]", cfg.Cutoff, cfg.BoxLength)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("nbody: negative worker count %d", cfg.Workers)
	}
	if alg := cfg.resolveAlgorithm(); (alg == CACutoff || alg == Midpoint) && cfg.Cutoff == 0 {
		return nil, fmt.Errorf("nbody: %v requires a positive cutoff", alg)
	}
	if cfg.Proc != nil && cfg.Proc.WorldSize() != cfg.P {
		return nil, fmt.Errorf("nbody: P=%d but the process mesh spans %d ranks (%d procs × %d per proc)",
			cfg.P, cfg.Proc.WorldSize(), cfg.Proc.NumProcs(), cfg.Proc.RanksPerProc())
	}
	s := &Simulation{cfg: cfg, particles: cfg.initialParticles()}
	if err := s.dryRun(); err != nil {
		return nil, err
	}
	// The observer attaches after the dry run so validation noise never
	// reaches the timeline (and the recorder after the observer: it
	// samples the observer's matrix and metrics).
	s.observer = cfg.observer()
	s.recorder = cfg.newRecorder(s.observer)
	return s, nil
}

// initialParticles builds the deterministic initial particle set the
// configuration describes; VerifySerial rebuilds the same set for the
// reference trajectory.
func (c Config) initialParticles() []Particle {
	box := c.box()
	switch {
	case c.Clusters > 0:
		sigma := c.ClusterSigma
		if sigma <= 0 {
			sigma = c.BoxLength / 16
		}
		return phys.InitClustered(c.N, box, c.Clusters, sigma, c.Seed)
	case c.Lattice:
		return phys.InitLattice(c.N, box, c.Seed)
	default:
		return phys.InitUniform(c.N, box, c.Seed)
	}
}

// dryRun executes zero timesteps through the parallel driver, which
// performs all parameter validation without doing work.
func (s *Simulation) dryRun() error {
	_, _, err := s.advance(0)
	return err
}

// Config returns the (defaulted) configuration.
func (s *Simulation) Config() Config { return s.cfg }

// Particles returns a copy of the current particle state, sorted by ID.
func (s *Simulation) Particles() []Particle {
	out := append([]Particle(nil), s.particles...)
	phys.SortByID(out)
	return out
}

// Steps returns the number of timesteps advanced so far.
func (s *Simulation) Steps() int { return s.steps }

// Run advances the simulation by the given number of timesteps using the
// configured parallel algorithm and records the communication report.
func (s *Simulation) Run(steps int) error {
	if steps < 0 {
		return fmt.Errorf("nbody: negative step count %d", steps)
	}
	final, rep, err := s.advance(steps)
	if err != nil {
		return err
	}
	s.particles = final
	s.report = rep
	s.steps += steps
	return nil
}

func (s *Simulation) advance(steps int) ([]Particle, *trace.Report, error) {
	pr := s.cfg.params(steps)
	pr.Options.Observe = s.observer
	if steps > 0 {
		// The dry run must not reach the recorder: zero-step validation
		// would otherwise start its runtime sampler and stream nothing.
		pr.Record = s.recorder
	}
	switch s.cfg.resolveAlgorithm() {
	case CAAllPairs:
		return core.AllPairs(s.particles, pr)
	case CACutoff:
		return core.Cutoff(s.particles, pr)
	case ParticleDecomp:
		return core.ParticleDecomposition(s.particles, pr)
	case ForceDecomp:
		return core.ForceDecomposition(s.particles, pr)
	case NaiveAllGather:
		return core.NaiveAllGather(s.particles, pr)
	case Midpoint:
		if s.cfg.Dim == 2 {
			return core.Midpoint2D(s.particles, pr)
		}
		return core.Midpoint1D(s.particles, pr)
	default:
		return nil, nil, fmt.Errorf("nbody: unknown algorithm %v", s.cfg.Algorithm)
	}
}

// Report returns the communication report of the last Run: per-phase
// critical-path message, byte and time accounting across all ranks. Nil
// before the first Run.
func (s *Simulation) Report() *trace.Report { return s.report }

// VerifySerial runs an independent serial reference (brute force, or
// cell lists when a cutoff is set) from the same initial state for the
// same number of completed steps and returns the worst relative particle
// position deviation. It is the library's end-to-end correctness check.
func (s *Simulation) VerifySerial() (float64, error) {
	cfg := s.cfg
	box := cfg.box()
	law := cfg.law()
	ref := cfg.initialParticles()
	for i := 0; i < s.steps; i++ {
		if cfg.Cutoff > 0 {
			phys.BruteForceCutoff(ref, law, box)
		} else {
			phys.BruteForce(ref, law)
		}
		phys.Step(ref, box, cfg.DT)
	}
	phys.SortByID(ref)
	got := s.Particles()
	if len(got) != len(ref) {
		return 0, fmt.Errorf("nbody: particle count diverged: %d vs %d", len(got), len(ref))
	}
	var worst float64
	for i := range got {
		if got[i].ID != ref[i].ID {
			return 0, fmt.Errorf("nbody: particle ID mismatch at %d", i)
		}
		if d := got[i].Pos.Dist(ref[i].Pos); d > worst {
			worst = d
		}
	}
	return worst, nil
}
