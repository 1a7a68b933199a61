package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	nbody "repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
	"repro/perfbench/stats"
)

// timedShare is the share of the traced run's budget spent on the
// interleaved timed chunks; the probes take what is left (they are
// bounded by repetition counts and finish well inside it).
const timedShare = 0.85

// runTraced is the --trace 1 run. It times the workload twice, with
// chunks interleaved so drift on a shared host hits both alike — once
// untraced, once observed (Config.Observe) with a benchmark span around
// every chunk — then probes each layer's public functions at the
// workload's own sizes, and derives the per-layer metrics.
func runTraced(out io.Writer, w workload, seed uint64, budget time.Duration, minChunks int, spansOut string, st stamp, t *tally) (map[string]float64, error) {
	sp := newSpans()
	root := sp.begin("bench.traced", -1, -1)
	vals := make(map[string]float64)

	// Untraced: the workload with observation off (for sockets-observed,
	// the same configuration unobserved) and no spans.
	t.attempted++
	gu, _, err := setup(w, w.config(seed, false), nil, -1)
	if err != nil {
		t.failed++
		return nil, fmt.Errorf("untraced setup: %w", err)
	}
	defer gu.close()

	// Traced: observed, spanned, with the correctness checks.
	cfg := w.config(seed, true)
	sec := sp.begin("bench.observed", root, -1)
	t.attempted++
	g, _, err := setup(w, cfg, sp, sec)
	if err != nil {
		t.failed++
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer g.close()
	runChecks(out, w, cfg, g, t, sp, sec)
	maxChunks := timelineRoom(g) / w.chunk
	pairs0 := mergedSnapshot(g).Counters["compute.pairs"]
	var untraced, traced []chunkStat
	ticks0, steal0 := cpuTicks()
	deadline := time.Now().Add(time.Duration(float64(budget) * timedShare))
	for i := 0; (time.Now().Before(deadline) || i < min(minChunks, 20)) && i < maxChunks; i++ {
		// Alternate which side runs first.
		for k := 0; k < 2; k++ {
			var c chunkStat
			if (i+k)%2 == 0 {
				if c, err = timeChunk(gu, w.chunk, t, nil, -1, i); err == nil {
					untraced = append(untraced, c)
				}
			} else if c, err = timeChunk(g, w.chunk, t, sp, sec, i); err == nil {
				traced = append(traced, c)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	printSteal(out, "the interleaved chunks", ticks0, steal0)
	tracedSteps := 0
	for _, c := range traced {
		tracedSteps += c.steps
	}
	var reg obs.Snapshot
	var dropped int64
	_ = sp.do("obs.MetricsSnapshot", sec, -1, func(int) error {
		reg = mergedSnapshot(g)
		return nil
	})
	_ = sp.do("obs.Timeline", sec, -1, func(int) error {
		for _, s := range g.sims {
			dropped += s.Timeline().Dropped()
		}
		return nil
	})
	pairsCounted := float64(reg.Counters["compute.pairs"]-pairs0) / float64(tracedSteps)
	snap := g.lead().Particles()
	defCfg := g.lead().Config()
	sp.end(sec)

	// The phase breakdown comes from the section that runs the
	// workload's own end-to-end configuration: untraced, except for the
	// observed socket workload.
	phases := untraced
	phaseSrc := "untraced section"
	if w.cfg.Observe != nil {
		phases, phaseSrc = traced, "observed section (the workload's own configuration)"
	}
	for i, name := range phaseNames {
		i := i
		vals["core."+name+"_ms"] = stats.Median(perStepMs(phases, func(c chunkStat) time.Duration { return c.cpTime[i] }))
		if i == int(trace.Compute) || i == int(trace.Other) {
			continue
		}
		vals["comm."+name+".msgs_per_step"] = countsPerStep(phases, func(c chunkStat) int64 { return c.sumMsgs[i] })
		vals["comm."+name+".bytes_per_step"] = countsPerStep(phases, func(c chunkStat) int64 { return c.sumByte[i] })
	}
	vals["core.compute_imbalance"] = medianOf(phases, func(c chunkStat) float64 { return c.computeImb })
	fmt.Fprintf(out, "core.* from the %s; comm.<phase>.* are aggregate (Report.Sum) over its first %d chunks\n", phaseSrc, countChunks)
	// The loop's own worker pool runs only where GOMAXPROCS leaves every
	// rank two cores. Its figures are printed when it runs but kept out
	// of the result line, which must carry the same metrics on every
	// host; the result line carries the direct pool probe
	// (phys.pool_probe_*) instead.
	if busy := stats.Median(perStepMs(phases, func(c chunkStat) time.Duration { return c.workerSum })); busy > 0 {
		fmt.Fprintf(out, "loop worker pool: phys.pool_busy_ms %.4g ms/step, core.worker_imbalance %.4g (Report.WorkerSum, WorkerImbalance; text only)\n",
			busy, medianOf(phases, func(c chunkStat) float64 { return c.workerImb }))
	} else {
		fmt.Fprintf(out, "skipped: phys.pool_busy_ms and core.worker_imbalance: the loop's worker pool needs GOMAXPROCS >= 2p = %d cores; at %d it runs inline\n",
			2*defCfg.P, runtime.GOMAXPROCS(0))
	}

	untracedMs := stats.Median(perStepMs(untraced, func(c chunkStat) time.Duration { return c.wall }))
	tracedMs := stats.Median(perStepMs(traced, func(c chunkStat) time.Duration { return c.wall }))
	vals["obs.overhead_frac"] = tracedMs/untracedMs - 1
	vals["obs.timeline_dropped"] = float64(dropped)
	fmt.Fprintf(out, "obs: untraced %.4g ms/step over %d chunks, observed+spanned %.4g ms/step over %d chunks (timeline room %d chunks)\n",
		untracedMs, len(untraced), tracedMs, len(traced), maxChunks)
	vals["comm.mailbox_depth_p90"] = histQuantile(reg.Histograms["comm.mailbox.depth"], 0.90)
	vals["comm.msg_bytes_p50"] = histQuantile(reg.Histograms["comm.msg.bytes"], 0.50)

	msg := messageParticles(defCfg)
	probe := sp.begin("bench.probes", root, -1)
	if err := probePhys(out, defCfg, snap, pairsCounted, vals, sp, probe); err != nil {
		t.attempted++
		t.failed++
		return nil, err
	}
	probeErr := probeComm(out, defCfg, msg, vals, sp, probe)
	t.check(out, "comm probes", probeErr)
	if probeErr == nil {
		probeErr = probeNet(out, w, defCfg, msg, vals, sp, probe)
		t.check(out, "net probes", probeErr)
	}
	sp.end(probe)
	sp.end(root)
	if probeErr != nil {
		return nil, probeErr
	}

	printSelfTimes(out, sp.list)
	if err := writeSpans(spansOut, st, sp.list); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", spansOut)
	return vals, nil
}

func medianOf(cs []chunkStat, f func(chunkStat) float64) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return stats.Median(xs)
}

// timelineRoom returns how many more steps fit in the observed
// timeline's rings without wrapping, at the event rate of the steps run
// so far (with a tenth kept spare), so obs.timeline_dropped measures
// loss rather than a run that merely outlasted its rings.
func timelineRoom(g *group) int {
	room := math.MaxInt
	steps := g.lead().Steps()
	for _, s := range g.sims {
		tl := s.Timeline()
		for r := 0; r < tl.Ranks(); r++ {
			tr := tl.Rank(r)
			if used := tr.Len(); used > 0 {
				perStep := float64(used) / float64(steps)
				room = min(room, int(0.9*float64(tr.Cap()-used)/perStep))
			}
		}
	}
	return max(room, 1)
}

// mergedSnapshot sums the registries of every mesh member (each sees
// only its own ranks): counters and histogram buckets add; gauges are
// not used.
func mergedSnapshot(g *group) obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for _, s := range g.sims {
		snap := s.MetricsSnapshot()
		for k, v := range snap.Counters {
			out.Counters[k] += v
		}
		for k, h := range snap.Histograms {
			m := out.Histograms[k]
			m.Count += h.Count
			m.Buckets = mergeBuckets(m.Buckets, h.Buckets)
			out.Histograms[k] = m
		}
	}
	return out
}

func mergeBuckets(a, b []obs.BucketSnapshot) []obs.BucketSnapshot {
	byLe := make(map[int64]int64)
	for _, x := range append(append([]obs.BucketSnapshot(nil), a...), b...) {
		byLe[x.Le] += x.Count
	}
	out := make([]obs.BucketSnapshot, 0, len(byLe))
	for le, n := range byLe {
		out = append(out, obs.BucketSnapshot{Le: le, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Le < out[j].Le })
	return out
}

// histQuantile returns the upper bound of the log₂ bucket holding the
// q-quantile of a registry histogram — the registry's own resolution.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	need := int64(math.Ceil(q * float64(h.Count)))
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= need {
			return float64(b.Le)
		}
	}
	return math.NaN()
}

// messageParticles is the particle count of the workload's bulk
// message: a team block (n/(p/c)) for the CA loops, a cell for the
// midpoint loop.
func messageParticles(cfg nbody.Config) int {
	if cfg.Algorithm == nbody.Midpoint {
		return cfg.N / cfg.P
	}
	return cfg.N / (cfg.P / cfg.C)
}

// lawOf and boxOf rebuild the workload's force law and box from its
// defaulted configuration.
func lawOf(cfg nbody.Config) phys.Law {
	return phys.Law{Kind: cfg.Potential, K: cfg.ForceK, Epsilon: cfg.Epsilon, Sigma: cfg.Sigma,
		Softening: cfg.Softening, Cutoff: cfg.Cutoff}
}

func boxOf(cfg nbody.Config) phys.Box { return phys.NewBox(cfg.BoxLength, cfg.Dim, cfg.Boundary) }

// kernelReps bounds the kernel timing: at least minKernelReps calls,
// then more until kernelBudget is spent or maxKernelReps ran.
const (
	minKernelReps = 5
	maxKernelReps = 50
	kernelBudget  = 300 * time.Millisecond
	poolWorkers   = targetProcs
)

// probePhys times the force kernel the workload's loop uses on the
// workload's own particle snapshot and counts the pairs within r_c.
// pairsCounted is the compute.pairs counter per step (0 where the loop
// does not count).
func probePhys(out io.Writer, cfg nbody.Config, snap []phys.Particle, pairsCounted float64, vals map[string]float64, sp *spans, parent int) error {
	law, box := lawOf(cfg), boxOf(cfg)
	kern := law.Kernel()
	n := len(snap)
	var targets, sources []phys.Particle
	var call func(pool *phys.Pool, tg []phys.Particle) int64
	var which string
	switch cfg.Algorithm {
	case nbody.CAAllPairs:
		// One team's block against every source: the all-pairs loop's
		// open-law Accumulate.
		targets, sources = snap[:messageParticles(cfg)], snap
		call = func(pool *phys.Pool, tg []phys.Particle) int64 { return pool.Accumulate(kern, tg, sources) }
		which = "Kernel.Accumulate (open law), one team block x all sources"
	case nbody.CACutoff:
		// Team 0's slab against its cutoff window (±m team widths,
		// periodic): the cutoff loop's AccumulateIn compaction.
		T := cfg.P / cfg.C
		width := cfg.BoxLength / float64(T)
		m := core.SpanFor(cfg.Cutoff, cfg.BoxLength, T)
		for _, p := range snap {
			team := min(int(p.Pos.X/width), T-1)
			if team == 0 {
				targets = append(targets, p)
			}
			if d := min(team, T-team); d <= m {
				sources = append(sources, p)
			}
		}
		call = func(pool *phys.Pool, tg []phys.Particle) int64 { return pool.AccumulateIn(kern, tg, sources, box) }
		which = fmt.Sprintf("Kernel.AccumulateIn (cutoff compaction), team 0 x its ±%d-team window", m)
	default:
		// The midpoint loop's gate-and-stage sweep is internal; the
		// probe times the cutoff compaction kernel over one cell's worth
		// of targets against every source.
		targets, sources = snap[:messageParticles(cfg)], snap
		call = func(pool *phys.Pool, tg []phys.Particle) int64 { return pool.AccumulateIn(kern, tg, sources, box) }
		which = "Kernel.AccumulateIn (cutoff compaction), one cell's worth of targets x all sources"
	}
	scratch := make([]phys.Particle, len(targets))
	var perPair []float64
	var evaluated int64
	start := time.Now()
	for rep := 0; rep < maxKernelReps && (rep < minKernelReps || time.Since(start) < kernelBudget); rep++ {
		copy(scratch, targets)
		phys.ClearForces(scratch)
		id := sp.begin("phys.Kernel", parent, -1)
		t0 := time.Now()
		evaluated = call(nil, scratch) // the nil pool runs the kernel inline
		d := time.Since(t0)
		sp.end(id)
		if evaluated <= 0 {
			return fmt.Errorf("phys probe evaluated no pairs")
		}
		perPair = append(perPair, float64(d.Nanoseconds())/float64(evaluated))
	}
	vals["phys.ns_per_pair"] = stats.Median(perPair)

	// The same call tiled over a poolWorkers-wide phys.Pool: the pool's
	// summed worker busy time per call and its busiest worker over the
	// mean.
	pool := phys.NewPool(poolWorkers)
	defer pool.Close()
	var busy, imbalance []float64
	for range perPair {
		copy(scratch, targets)
		phys.ClearForces(scratch)
		_ = sp.do("phys.Pool", parent, -1, func(int) error {
			call(pool, scratch)
			return nil
		})
		var sum, most int64
		lanes := pool.LastSpansNs()
		for _, ns := range lanes {
			sum += ns
			most = max(most, ns)
		}
		busy = append(busy, float64(sum)/1e6)
		imbalance = append(imbalance, float64(most)*float64(len(lanes))/float64(sum))
	}
	vals["phys.pool_probe_busy_ms"] = stats.Median(busy)
	vals["phys.pool_probe_imbalance"] = stats.Median(imbalance)

	rc := cfg.Cutoff
	if rc == 0 {
		rc = math.Inf(1)
	}
	var within int64
	_ = sp.do("phys.CountPairsWithin", parent, -1, func(int) error {
		within = phys.CountPairsWithin(snap, rc, box)
		return nil
	})
	candidates := float64(n) * float64(n-1)
	switch {
	case pairsCounted > 0:
		vals["phys.pairs_per_step"] = pairsCounted
		vals["phys.survivor_frac"] = float64(within) / pairsCounted
		fmt.Fprintf(out, "phys: pairs_per_step from the compute.pairs counter; survivor_frac = pairs within r_c / counted pairs\n")
	default:
		// The midpoint loop does not count its pairs. Each ordered pair
		// within r_c is computed exactly once, by its midpoint's owner,
		// so the probe's count stands in; the survivor share is taken
		// over all n(n-1) candidate pairs.
		vals["phys.pairs_per_step"] = float64(within)
		vals["phys.survivor_frac"] = float64(within) / candidates
		fmt.Fprintf(out, "phys: %v does not count compute.pairs; pairs_per_step is CountPairsWithin on the snapshot, survivor_frac is over n(n-1) candidates\n", cfg.Algorithm)
	}
	fmt.Fprintf(out, "phys: ns_per_pair from %s (%d pairs per call, %d calls); pool_probe_* from the same call over a %d-worker phys.Pool\n",
		which, evaluated, len(perPair), poolWorkers)
	return nil
}

// probeSizes are the message sizes (in particles) the transport probes
// fit α/β over: fractions of the workload's bulk message, plus one
// particle for the latency.
func probeSizes(msg int) []int {
	sizes := []int{1}
	for _, d := range []int{16, 4, 2, 1} {
		if s := msg / d; s > sizes[len(sizes)-1] {
			sizes = append(sizes, s)
		}
	}
	return sizes
}

const (
	pingReps = 200 // round trips per size
	pingWarm = 20  // untimed round trips first
	collReps = 200 // collective repetitions
	probeTag = 7
)

// pingPong runs on ranks 0 and 1 of c: rank 0 sends each size to rank 1
// and waits for it back; oneWay[i] receives the median one-way time in
// seconds for sizes[i]. Only rank 0 writes oneWay.
func pingPong(c *comm.Comm, sizes []int, oneWay []float64) {
	peer := 1 - c.Rank()
	buf := make([]phys.Particle, sizes[len(sizes)-1])
	for i := range buf {
		buf[i].ID = uint32(i)
	}
	for si, n := range sizes {
		var samples []float64
		for r := 0; r < pingWarm+pingReps; r++ {
			if c.Rank() == 0 {
				t0 := time.Now()
				c.SendParticles(peer, probeTag, buf[:n])
				c.RecvParticles(peer, probeTag)
				if r >= pingWarm {
					samples = append(samples, time.Since(t0).Seconds()/2)
				}
			} else {
				c.SendParticles(peer, probeTag, c.RecvParticles(peer, probeTag))
			}
		}
		if c.Rank() == 0 {
			oneWay[si] = stats.Median(samples)
		}
	}
}

// transportFit turns per-size one-way times into the latency,
// bandwidth and α/β metrics under prefix.
func transportFit(prefix string, sizes []int, oneWay []float64, vals map[string]float64) (alpha, beta float64, err error) {
	x := make([]float64, len(sizes))
	for i, s := range sizes {
		x[i] = float64(phys.WireBytes(s))
	}
	alpha, beta, err = stats.FitAlphaBeta(x, oneWay)
	if err != nil {
		return 0, 0, err
	}
	last := len(sizes) - 1
	vals[prefix+"latency_us"] = oneWay[0] * 1e6
	vals[prefix+"mb_per_s"] = x[last] / oneWay[last] / 1e6
	vals[prefix+"alpha_us"] = alpha * 1e6
	vals[prefix+"beta_ns_per_kb"] = beta * 1e9 * 1024
	return alpha, beta, nil
}

// probeComm measures the in-process runtime through comm.Run at the
// workload's message sizes: typed point-to-point ping-pong with its α/β
// fit, and the team broadcast and reduction of a c-member team.
func probeComm(out io.Writer, cfg nbody.Config, msg int, vals map[string]float64, sp *spans, parent int) error {
	sizes := probeSizes(msg)
	oneWay := make([]float64, len(sizes))
	err := sp.do("comm.Run", parent, -1, func(int) error {
		_, err := comm.Run(2, comm.Options{}, func(c *comm.Comm) error {
			pingPong(c, sizes, oneWay)
			return nil
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("typed ping-pong: %w", err)
	}
	alpha, beta, err := transportFit("comm.typed.", sizes, oneWay, vals)
	if err != nil {
		return err
	}
	team := max(cfg.C, 2)
	bcast, err := collective(team, sp, parent, func(c *comm.Comm) func() {
		src := make([]phys.Particle, msg)
		var dst []phys.Particle
		return func() {
			if c.Rank() == 0 {
				dst = c.BcastParticles(0, src, dst)
			} else {
				dst = c.BcastParticles(0, nil, dst)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("bcast probe: %w", err)
	}
	reduce, err := collective(team, sp, parent, func(c *comm.Comm) func() {
		forces := make([]float64, 2*msg)
		return func() { c.ReduceF64sInPlace(0, forces) }
	})
	if err != nil {
		return fmt.Errorf("reduce probe: %w", err)
	}
	vals["comm.bcast_us"] = bcast * 1e6
	vals["comm.reduce_us"] = reduce * 1e6
	fmt.Fprintf(out, "comm: typed ping-pong over sizes %v particles; bcast/reduce over a %d-rank team at %d particles\n", sizes, team, msg)
	printModel(out, "comm.typed (in-process)", alpha, beta)
	return nil
}

// collective times one collective on a size-rank communicator: every
// repetition starts at a barrier, and its time is the slowest rank's.
// mk builds each rank's operation (allocating outside the timing).
func collective(size int, sp *spans, parent int, mk func(c *comm.Comm) func()) (float64, error) {
	per := make([][]float64, size) // per[rank][rep]; each rank writes its own row
	err := sp.do("comm.Run", parent, -1, func(int) error {
		_, err := comm.Run(size, comm.Options{}, func(c *comm.Comm) error {
			op := mk(c)
			row := make([]float64, 0, collReps)
			for r := 0; r < pingWarm+collReps; r++ {
				c.Barrier()
				t0 := time.Now()
				op()
				if r >= pingWarm {
					row = append(row, time.Since(t0).Seconds())
				}
			}
			per[c.Rank()] = row
			return nil
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	slowest := make([]float64, collReps)
	for r := range slowest {
		for _, row := range per {
			slowest[r] = max(slowest[r], row[r])
		}
	}
	return stats.Median(slowest), nil
}

// meshReps is how many meshes the mesh-setup probe forms.
const meshReps = 3

// probeNet measures the socket mesh: formation time, and ping-pong
// between two one-rank members through comm.RunProc at the workload's
// message sizes.
func probeNet(out io.Writer, w workload, cfg nbody.Config, msg int, vals map[string]float64, sp *spans, parent int) error {
	procs := max(w.procs, 2)
	ranksPer := max(cfg.P/procs, 1)
	var setups []float64
	for i := 0; i < meshReps; i++ {
		var members []*nbody.ProcGroup
		t0 := time.Now()
		err := sp.do("net.JoinProcs", parent, -1, func(int) error {
			var err error
			members, err = joinMesh(procs, ranksPer)
			return err
		})
		if err != nil {
			return fmt.Errorf("mesh setup: %w", err)
		}
		setups = append(setups, float64(time.Since(t0).Nanoseconds())/1e6)
		closeMesh(members)
	}
	vals["net.mesh_setup_ms"] = stats.Median(setups)

	members, err := joinMesh(2, 1)
	if err != nil {
		return fmt.Errorf("ping-pong mesh: %w", err)
	}
	defer closeMesh(members)
	sizes := probeSizes(msg)
	oneWay := make([]float64, len(sizes))
	err = sp.do("net.RunProc", parent, -1, func(int) error {
		return parallel(2, func(i int) error {
			_, _, err := comm.RunProc(2, comm.Options{}, members[i], func(c *comm.Comm) error {
				pingPong(c, sizes, oneWay)
				return nil
			})
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("socket ping-pong: %w", err)
	}
	alpha, beta, err := transportFit("net.", sizes, oneWay, vals)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "net: %d-member unix-socket mesh (%d ranks each) formed %d times; ping-pong over sizes %v particles\n",
		procs, ranksPer, meshReps, sizes)
	printModel(out, "net (unix socket)", alpha, beta)
	return nil
}

// printModel prints a fitted α/β beside internal/machine's model
// parameters of the paper's two systems — for reference, not a gate.
func printModel(out io.Writer, what string, alpha, beta float64) {
	fmt.Fprintf(out, "  alpha/beta %-24s alpha=%8.3f us  beta=%10.4f ns/KiB  (GOMAXPROCS=%d)\n",
		what, alpha*1e6, beta*1e9*1024, runtime.GOMAXPROCS(0))
	for _, m := range []machine.Machine{machine.Hopper(), machine.Intrepid()} {
		fmt.Fprintf(out, "    reference %-26s alpha=%8.3f us  beta=%10.4f ns/KiB  (on-node alpha=%.3f us beta=%.4f ns/KiB)\n",
			m.Name, m.Alpha*1e6, m.Beta*1e9*1024, m.AlphaLocal*1e6, m.BetaLocal*1e9*1024)
	}
}
