package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	nbody "repro"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/perfbench/stats"
)

// tally counts attempted and failed operations: setups, runs and checks.
type tally struct {
	attempted, failed int64
}

// check records one correctness check and prints its outcome.
func (t *tally) check(w io.Writer, name string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(w, "check %-28s FAIL: %v\n", name, err)
		return
	}
	fmt.Fprintf(w, "check %-28s ok\n", name)
}

// chunkStat is what the benchmark keeps of one timed Run call.
type chunkStat struct {
	wall, cpu time.Duration
	alloc     uint64 // heap bytes allocated
	steps     int
	s, w      int64 // Report.S() and Report.W()
	// Per-phase critical-path time and aggregate (all-rank) traffic.
	cpTime           [len(phaseNames)]time.Duration
	sumMsgs, sumByte [len(phaseNames)]int64
	computeImb       float64
	workerImb        float64
	workerSum        time.Duration
}

// phaseNames are the trace phases in trace.Phase order.
var phaseNames = [...]string{"compute", "broadcast", "skew", "shift", "reduce", "reassign", "other"}

func statOf(rep *trace.Report, wall, cpu time.Duration, steps int) chunkStat {
	c := chunkStat{wall: wall, cpu: cpu, steps: steps, s: rep.S(), w: rep.W(),
		computeImb: rep.ComputeImbalance(), workerImb: rep.WorkerImbalance(), workerSum: rep.WorkerSum}
	for i := range phaseNames {
		c.cpTime[i] = rep.CriticalPath[i].Time
		c.sumMsgs[i] = rep.Sum[i].Messages
		c.sumByte[i] = rep.Sum[i].Bytes
	}
	return c
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocBytes returns the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeChunk times one Run call of steps steps. With a non-nil sp the
// chunk gets a span pair: the chunk, and the call into the timestep
// loop inside it.
func timeChunk(g *group, steps int, t *tally, sp *spans, parent, i int) (chunkStat, error) {
	cid := sp.begin("bench.chunk", parent, i)
	rid := sp.begin("core.Run", cid, i)
	a0 := heapAllocBytes()
	c0 := cpuTime()
	t0 := time.Now()
	err := g.run(steps)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	alloc := heapAllocBytes() - a0
	sp.end(rid)
	sp.end(cid)
	t.attempted++
	if err != nil {
		t.failed++
		return chunkStat{}, fmt.Errorf("chunk %d: %w", i, err)
	}
	c := statOf(g.lead().Report(), wall, cpu, steps)
	c.alloc = alloc
	return c, nil
}

// perStepMs maps each chunk to milliseconds per step of one quantity.
func perStepMs(cs []chunkStat, f func(chunkStat) time.Duration) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(f(c)) / 1e6 / float64(c.steps)
	}
	return out
}

// countChunks is how many leading chunks the exact per-step counts are
// taken over: a fixed count, so the counts repeat exactly for a seed
// however many chunks the time budget allows.
const countChunks = 10

// countsPerStep returns a per-step count summed over the first
// countChunks chunks.
func countsPerStep(cs []chunkStat, f func(chunkStat) int64) float64 {
	n := min(len(cs), countChunks)
	var total int64
	steps := 0
	for _, c := range cs[:n] {
		total += f(c)
		steps += c.steps
	}
	if steps == 0 {
		return math.NaN()
	}
	return float64(total) / float64(steps)
}

// setupReps is how many set-ups a trace-0 run makes before its timed
// episodes (each of which sets up once more); setup_s is the median
// over all of them.
const setupReps = 10

// episodeChunks is how many chunks one simulation runs before the
// benchmark sets up a fresh one from the same seed. Every episode
// covers the same stretch of the trajectory, so a run's figures do not
// depend on how far a faster or slower host carried the simulation:
// the cutoff-limited loops' cost follows the particle arrangement.
const episodeChunks = 40

// setup builds the workload's simulation and advances it one untimed
// step, returning the group and the elapsed time.
func setup(w workload, cfg nbody.Config, sp *spans, parent int) (*group, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	g, err := newGroup(cfg, w.procs, sp, parent)
	if err != nil {
		return nil, 0, err
	}
	if err := sp.do("core.Run", parent, -1, func(int) error { return g.run(1) }); err != nil {
		g.close()
		return nil, 0, err
	}
	return g, time.Since(t0), nil
}

// checkCounts compares the first step's critical-path traffic against
// the closed forms of internal/core. The midpoint loop has none.
func checkCounts(w workload, cfg nbody.Config, rep *trace.Report) (string, error) {
	var want core.ExpectedCounts
	switch cfg.Algorithm {
	case nbody.CAAllPairs:
		want = core.AllPairsExpectedCounts(cfg.N, cfg.P, cfg.C)
	case nbody.CACutoff:
		m := core.SpanFor(cfg.Cutoff, cfg.BoxLength, cfg.P/cfg.C)
		var err error
		if want, err = core.Cutoff1DExpectedCounts(cfg.N, cfg.P, cfg.C, m); err != nil {
			return "", err
		}
		// Reassignment bytes follow the trajectories; only the message
		// count (both neighbours of every team, periodic) is exact.
		if got := rep.CriticalPath[trace.Reassign].Messages; got != 2 {
			return "", fmt.Errorf("reassign sends %d, want 2", got)
		}
	default:
		return "no closed form for " + cfg.Algorithm.String(), nil
	}
	cp := rep.CriticalPath
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"bcast sends", cp[trace.Broadcast].Messages, want.BcastSends},
		{"bcast bytes", cp[trace.Broadcast].Bytes, want.BcastBytes},
		{"skew sends", cp[trace.Skew].Messages, want.SkewSends},
		{"skew bytes", cp[trace.Skew].Bytes, want.SkewBytes},
		{"shift sends", cp[trace.Shift].Messages, want.ShiftSends},
		{"shift bytes", cp[trace.Shift].Bytes, want.ShiftBytes},
		{"reduce sends", cp[trace.Reduce].Messages, want.ReduceSends},
		{"reduce bytes", cp[trace.Reduce].Bytes, want.ReduceBytes},
		{"reduce recvs", cp[trace.Reduce].RecvMessages, want.ReduceRecvs},
	} {
		if f.got != f.want {
			return "", fmt.Errorf("%s: got %d, want %d", f.name, f.got, f.want)
		}
	}
	return "", nil
}

// runChecks runs the correctness checks on a freshly set-up group (one
// step done): exact first-step counts, the serial reference after
// verifySteps steps, and — for socket workloads — bitwise identity with
// the in-process run of the same seed.
func runChecks(out io.Writer, w workload, cfg nbody.Config, g *group, t *tally, sp *spans, parent int) {
	note, err := checkCounts(w, cfg, g.lead().Report())
	t.check(out, "first-step counts", err)
	if note != "" {
		fmt.Fprintf(out, "  (%s; VerifySerial only)\n", note)
	}
	err = sp.do("core.Run", parent, -1, func(int) error { return g.run(w.verifySteps - 1) })
	if err == nil {
		err = sp.do("core.VerifySerial", parent, -1, func(int) error {
			dev, err := g.lead().VerifySerial()
			if err == nil && !(dev <= w.tol) {
				err = fmt.Errorf("position deviation %.3g exceeds %.1g", dev, w.tol)
			}
			return err
		})
	}
	t.check(out, fmt.Sprintf("VerifySerial (%d steps, tol %.0g)", w.verifySteps, w.tol), err)
	if w.procs == 0 {
		return
	}
	local := cfg
	local.Proc = nil
	err = sp.do("core.Run", parent, -1, func(int) error {
		ref, err := nbody.New(local)
		if err != nil {
			return err
		}
		if err := ref.Run(w.verifySteps); err != nil {
			return err
		}
		return sameState(ref.Particles(), g.lead().Particles())
	})
	t.check(out, "sockets == in-process, bitwise", err)
}

// sameState requires two particle sets to match bit for bit.
func sameState(a, b []nbody.Particle) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d particles", len(a), len(b))
	}
	bits := math.Float64bits
	for i := range a {
		p, q := a[i], b[i]
		if p.ID != q.ID || bits(p.Pos.X) != bits(q.Pos.X) || bits(p.Pos.Y) != bits(q.Pos.Y) ||
			bits(p.Vel.X) != bits(q.Vel.X) || bits(p.Vel.Y) != bits(q.Vel.Y) ||
			bits(p.Force.X) != bits(q.Force.X) || bits(p.Force.Y) != bits(q.Force.Y) {
			return fmt.Errorf("particle %d (id %d) differs", i, p.ID)
		}
	}
	return nil
}

// runEndToEnd runs the untraced measurement: setupReps set-ups (the
// first also runs the correctness checks), then timed episodes for the
// budget. It returns the end-to-end metrics.
func runEndToEnd(out io.Writer, w workload, seed uint64, budget time.Duration, minChunks int, t *tally) (map[string]float64, error) {
	cfg := w.config(seed, w.cfg.Observe != nil)
	var setups []float64
	newEpisode := func() (*group, error) {
		t.attempted++
		g, d, err := setup(w, cfg, nil, -1)
		if err != nil {
			t.failed++
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		return g, nil
	}
	for len(setups) < setupReps {
		g, err := newEpisode()
		if err != nil {
			return nil, err
		}
		if len(setups) == 1 {
			runChecks(out, w, cfg, g, t, nil, -1)
		}
		g.close()
	}

	var cs []chunkStat
	ticks0, steal0 := cpuTicks()
	deadline := time.Now().Add(budget)
	more := func() bool { return len(cs) < minChunks || time.Now().Before(deadline) }
	for more() {
		g, err := newEpisode()
		if err != nil {
			return nil, err
		}
		for j := 0; j < episodeChunks && more(); j++ {
			c, err := timeChunk(g, w.chunk, t, nil, -1, len(cs))
			if err != nil {
				g.close()
				return nil, err
			}
			cs = append(cs, c)
		}
		g.close()
	}
	steps := 0
	var alloc uint64
	for _, c := range cs {
		steps += c.steps
		alloc += c.alloc
	}
	wall := perStepMs(cs, func(c chunkStat) time.Duration { return c.wall })
	p90, beyond := stats.Percentile(wall, 0.90)
	hq, _ := stats.HighestPercentile(len(wall))
	hv, _ := stats.Percentile(wall, hq)
	fmt.Fprintf(out, "timed: %d chunks of %d step(s) in episodes of %d chunks; step_ms_p90 has %d samples beyond it (needs %d); highest percentile with %d beyond: p%.1f = %.4g ms\n",
		len(cs), w.chunk, episodeChunks, beyond, stats.MinBeyond, stats.MinBeyond, 100*hq, hv)
	fmt.Fprintf(out, "setup_s over %d set-ups\n", len(setups))
	printSteal(out, "the timed episodes", ticks0, steal0)
	vals := map[string]float64{
		"setup_s":           stats.Median(setups),
		"step_ms":           stats.Median(wall),
		"step_ms_p90":       p90,
		"cpu_ms_per_step":   stats.Median(perStepMs(cs, func(c chunkStat) time.Duration { return c.cpu })),
		"alloc_kb_per_step": float64(alloc) / 1024 / float64(steps),
		"max_rss_mb":        maxRSSMiB(),
		"s_msgs_per_step":   countsPerStep(cs, func(c chunkStat) int64 { return c.s }),
		"w_bytes_per_step":  countsPerStep(cs, func(c chunkStat) int64 { return c.w }),
	}
	return vals, nil
}
