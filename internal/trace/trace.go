// Package trace provides phase-labelled communication and computation
// accounting. Every rank of the message-passing runtime owns a Stats; the
// algorithms label the current phase (broadcast, skew, shift, reduce,
// reassign, compute) and the runtime attributes each message, byte and
// nanosecond to the active phase. Aggregating per-rank Stats yields the
// critical-path quantities S (messages) and W (words) the paper's lower
// bounds speak about, and the per-phase time breakdowns of Figures 2
// and 6.
package trace

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// Phase labels one part of a timestep. The values mirror the phase
// breakdown in the paper's figures.
type Phase int

const (
	Compute Phase = iota
	Broadcast
	Skew
	Shift
	Reduce
	Reassign
	Other
	numPhases
)

func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case Broadcast:
		return "broadcast"
	case Skew:
		return "skew"
	case Shift:
		return "shift"
	case Reduce:
		return "reduce"
	case Reassign:
		return "reassign"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases lists all phases in display order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// CommPhases lists the phases that represent communication (everything
// but Compute and Other), in display order.
func CommPhases() []Phase {
	return []Phase{Broadcast, Skew, Shift, Reduce, Reassign}
}

// PhaseStats accumulates the activity attributed to one phase on one
// rank. Sends and receives are tracked separately: the per-rank sum of
// the two bounds the rank's contribution to the critical path, which is
// how the paper's S and W are interpreted for tree collectives (a
// reduction root sends nothing but sits behind log c receives).
type PhaseStats struct {
	Messages     int64         // point-to-point messages sent
	Bytes        int64         // payload bytes sent
	RecvMessages int64         // messages received
	RecvBytes    int64         // payload bytes received
	Pairs        int64         // pair-force evaluations counted
	Time         time.Duration // wall time spent in the phase
}

// Events returns the total number of message events (sends plus
// receives) on the rank in this phase.
func (s PhaseStats) Events() int64 { return s.Messages + s.RecvMessages }

// Volume returns the total traffic (sent plus received bytes) on the
// rank in this phase.
func (s PhaseStats) Volume() int64 { return s.Bytes + s.RecvBytes }

// Add accumulates o into s.
func (s *PhaseStats) Add(o PhaseStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.RecvMessages += o.RecvMessages
	s.RecvBytes += o.RecvBytes
	s.Pairs += o.Pairs
	s.Time += o.Time
}

// Max keeps the per-field maximum of s and o. Taking the maximum across
// ranks of per-rank totals is how the critical-path S and W are obtained.
func (s *PhaseStats) Max(o PhaseStats) {
	if o.Messages > s.Messages {
		s.Messages = o.Messages
	}
	if o.Bytes > s.Bytes {
		s.Bytes = o.Bytes
	}
	if o.RecvMessages > s.RecvMessages {
		s.RecvMessages = o.RecvMessages
	}
	if o.RecvBytes > s.RecvBytes {
		s.RecvBytes = o.RecvBytes
	}
	if o.Pairs > s.Pairs {
		s.Pairs = o.Pairs
	}
	if o.Time > s.Time {
		s.Time = o.Time
	}
}

// Stats is the per-rank accounting record. It is not safe for concurrent
// use; each rank owns exactly one. Builds with the obsdebug tag enforce
// the single-goroutine contract: the first mutating call binds the
// owning goroutine and any mutation from another goroutine panics.
type Stats struct {
	phase   Phase
	started time.Time
	timing  bool
	guard   guard
	tracer  *obs.Tracer
	ByPhase [numPhases]PhaseStats
	// WorkerCompute accumulates the busy time of each intra-rank force
	// worker (index = worker id within the rank's pool). Stamped by the
	// rank goroutine between pool batches — never by the workers — so
	// the single-goroutine ownership contract holds.
	WorkerCompute []time.Duration
}

// NewStats returns a Stats positioned in the Other phase with timing
// disabled.
func NewStats() *Stats { return &Stats{phase: Other} }

// SetTracer attaches a per-rank event tracer: subsequent SetPhase calls
// emit timeline span events alongside the aggregate accounting. A nil
// tracer (the default) disables span emission at the cost of a nil
// check.
func (s *Stats) SetTracer(t *obs.Tracer) {
	s.tracer = t
	s.tracer.Phase(uint8(s.phase))
}

// Tracer returns the attached event tracer (nil when disabled).
func (s *Stats) Tracer() *obs.Tracer { return s.tracer }

// SetPhase switches the active phase. If wall-clock timing was started
// with StartTiming, the elapsed time since the last switch is charged to
// the outgoing phase. With a tracer attached, the outgoing phase's span
// is emitted to the timeline.
func (s *Stats) SetPhase(p Phase) {
	s.guard.check()
	if s.timing {
		now := time.Now()
		s.ByPhase[s.phase].Time += now.Sub(s.started)
		s.started = now
	}
	s.phase = p
	s.tracer.Phase(uint8(p))
}

// Phase returns the active phase.
func (s *Stats) Phase() Phase { return s.phase }

// StartTiming begins charging wall time to phases.
func (s *Stats) StartTiming() {
	s.guard.check()
	s.timing = true
	s.started = time.Now()
}

// StopTiming charges the time since the last phase switch and stops the
// clock.
func (s *Stats) StopTiming() {
	s.guard.check()
	if s.timing {
		s.ByPhase[s.phase].Time += time.Since(s.started)
		s.timing = false
	}
}

// AddWorkerCompute charges d of force-pool busy time to intra-rank
// worker w. Must be called by the owning rank goroutine (the pool
// records per-worker times internally; the rank stamps them here after
// each batch or step).
func (s *Stats) AddWorkerCompute(w int, d time.Duration) {
	s.guard.check()
	for len(s.WorkerCompute) <= w {
		s.WorkerCompute = append(s.WorkerCompute, 0)
	}
	s.WorkerCompute[w] += d
}

// CountMessage attributes one sent message of n payload bytes to the
// active phase.
func (s *Stats) CountMessage(n int) {
	s.guard.check()
	s.ByPhase[s.phase].Messages++
	s.ByPhase[s.phase].Bytes += int64(n)
}

// CountPairs attributes n pair-force evaluations to the active phase.
func (s *Stats) CountPairs(n int64) {
	s.guard.check()
	s.ByPhase[s.phase].Pairs += n
}

// CountRecv attributes one received message of n payload bytes to the
// active phase.
func (s *Stats) CountRecv(n int) {
	s.guard.check()
	s.ByPhase[s.phase].RecvMessages++
	s.ByPhase[s.phase].RecvBytes += int64(n)
}

// TotalMessages returns the total number of messages across phases.
func (s *Stats) TotalMessages() int64 {
	var t int64
	for i := range s.ByPhase {
		t += s.ByPhase[i].Messages
	}
	return t
}

// TotalBytes returns the total payload bytes across phases.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for i := range s.ByPhase {
		t += s.ByPhase[i].Bytes
	}
	return t
}

// CommTime returns the total time spent in communication phases.
func (s *Stats) CommTime() time.Duration {
	var t time.Duration
	for _, p := range CommPhases() {
		t += s.ByPhase[p].Time
	}
	return t
}

// Report aggregates the Stats of all ranks in a run.
type Report struct {
	Ranks int
	// CriticalPath holds, per phase, the maximum per-rank totals: the
	// paper's "communication along the critical path".
	CriticalPath [numPhases]PhaseStats
	// Sum holds, per phase, the totals across all ranks.
	Sum [numPhases]PhaseStats
	// Worker-lane aggregates over every rank×worker pair that recorded
	// force-pool busy time: the slowest lane, the total across lanes,
	// and the lane count. Zero lanes when no rank used a pool.
	WorkerMax   time.Duration
	WorkerSum   time.Duration
	WorkerLanes int
	// SLowerBound and WLowerBound are the paper's per-run communication
	// lower bounds for the executed configuration (Eq. 2 for direct
	// interactions, Eq. 3 under a cutoff), in message events and bytes
	// respectively — the same units as S() and W(). Zero when the
	// algorithm driver did not supply bounds; then the footer omits the
	// optimality lines.
	SLowerBound float64
	WLowerBound float64
	// TimelineDropped counts timeline events lost to ring wraparound
	// during the run (0 when unobserved or nothing was dropped). A
	// nonzero value means the exported trace is a truncated suffix.
	TimelineDropped int64
	// Placement quantities, stamped by the placement optimizer
	// (Simulation.OptimizePlacement) when it ran against this report's
	// run: the hop-weighted traffic of the measured matrix under the
	// natural (identity) rank→node mapping, under the optimizer's
	// chosen permutation, and the co-location lower bound — plus the
	// winning searcher's name. Zero/empty when no placement ran; then
	// the footer omits the placement lines.
	PlacementAlgorithm string
	HopBytesMeasured   float64
	HopBytesOptimized  float64
	HopBytesBound      float64
}

// Aggregate builds a Report from per-rank Stats.
func Aggregate(ranks []*Stats) *Report {
	r := &Report{Ranks: len(ranks)}
	for _, s := range ranks {
		for i := range s.ByPhase {
			r.Sum[i].Add(s.ByPhase[i])
			r.CriticalPath[i].Max(s.ByPhase[i])
		}
		for _, d := range s.WorkerCompute {
			if d > r.WorkerMax {
				r.WorkerMax = d
			}
			r.WorkerSum += d
			r.WorkerLanes++
		}
	}
	return r
}

// S returns the critical-path message-event count summed over
// communication phases — the paper's latency cost S (within a factor of
// two, since each link event is charged to both endpoints).
func (r *Report) S() int64 {
	var s int64
	for _, p := range CommPhases() {
		s += r.CriticalPath[p].Events()
	}
	return s
}

// W returns the critical-path traffic summed over communication phases —
// the paper's bandwidth cost W, in bytes rather than words (again within
// a factor of two from double-ended accounting).
func (r *Report) W() int64 {
	var w int64
	for _, p := range CommPhases() {
		w += r.CriticalPath[p].Volume()
	}
	return w
}

// Imbalance returns the load imbalance of a phase: the maximum per-rank
// time divided by the mean per-rank time (1.0 = perfectly balanced). It
// quantifies the boundary effects the paper blames for the cutoff
// algorithm's reduced efficiency. Phases with no recorded time report 1.
func (r *Report) Imbalance(p Phase) float64 {
	if r.Ranks == 0 || r.Sum[p].Time == 0 {
		return 1
	}
	mean := float64(r.Sum[p].Time) / float64(r.Ranks)
	return float64(r.CriticalPath[p].Time) / mean
}

// ComputeImbalance is Imbalance(Compute), the headline balance metric.
func (r *Report) ComputeImbalance() float64 { return r.Imbalance(Compute) }

// PairImbalance is the compute imbalance in counted work rather than
// wall time: the maximum per-rank pair-force evaluation count divided
// by the mean. Unlike ComputeImbalance it is a pure function of the
// input and the configuration, so it repeats exactly from run to run.
// Runs that counted no pairs report 1.
func (r *Report) PairImbalance() float64 {
	sum := r.Sum[Compute].Pairs
	if r.Ranks == 0 || sum == 0 {
		return 1
	}
	return float64(r.CriticalPath[Compute].Pairs) * float64(r.Ranks) / float64(sum)
}

// WorkerImbalance returns the intra-rank force-pool skew: the busiest
// rank×worker lane divided by the mean lane, over every lane that any
// rank's pool recorded. It is the hierarchical counterpart of
// ComputeImbalance — that figure compares ranks, this one compares the
// workers inside them. 1.0 when balanced or when no pool ran.
func (r *Report) WorkerImbalance() float64 {
	if r.WorkerLanes == 0 || r.WorkerSum == 0 {
		return 1
	}
	mean := float64(r.WorkerSum) / float64(r.WorkerLanes)
	return float64(r.WorkerMax) / mean
}

// String renders the report as an aligned table of per-phase
// critical-path numbers, followed by a labeled footer with the paper's
// headline quantities: the latency cost S, the bandwidth cost W, and
// the compute imbalance.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %13s %10s %13s %12s\n",
		"phase", "sent(max)", "sentB(max)", "recv(max)", "recvB(max)", "time(max)")
	for _, p := range Phases() {
		cp := r.CriticalPath[p]
		if cp.Events() == 0 && cp.Time == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %10d %13d %10d %13d %12s\n",
			p, cp.Messages, cp.Bytes, cp.RecvMessages, cp.RecvBytes, cp.Time)
	}
	fmt.Fprintf(&b, "%-37s %12d\n", "S/W  S (critical-path msg events)", r.S())
	fmt.Fprintf(&b, "%-37s %12d\n", "     W (critical-path bytes)", r.W())
	if r.SLowerBound > 0 {
		fmt.Fprintf(&b, "%-37s %12.1f\n", "     S lower bound (Eq. 2/3)", r.SLowerBound)
		fmt.Fprintf(&b, "%-37s %12.2f\n", "     S / bound (1 = optimal)", float64(r.S())/r.SLowerBound)
	}
	if r.WLowerBound > 0 {
		fmt.Fprintf(&b, "%-37s %12.1f\n", "     W lower bound (bytes)", r.WLowerBound)
		fmt.Fprintf(&b, "%-37s %12.2f\n", "     W / bound (1 = optimal)", float64(r.W())/r.WLowerBound)
	}
	if r.HopBytesMeasured > 0 {
		fmt.Fprintf(&b, "%-37s %12.0f\n", "     hop-bytes measured (identity)", r.HopBytesMeasured)
		label := "     hop-bytes optimized"
		if r.PlacementAlgorithm != "" {
			label = fmt.Sprintf("     hop-bytes optimized (%s)", r.PlacementAlgorithm)
		}
		fmt.Fprintf(&b, "%-37s %12.0f\n", label, r.HopBytesOptimized)
		if r.HopBytesBound > 0 {
			fmt.Fprintf(&b, "%-37s %12.0f\n", "     hop-bytes lower bound", r.HopBytesBound)
		}
		fmt.Fprintf(&b, "%-37s %12.3f\n", "     hop-bytes optimized/measured", r.HopBytesOptimized/r.HopBytesMeasured)
	}
	fmt.Fprintf(&b, "%-37s %12.3f\n", "     compute imbalance (max/mean)", r.ComputeImbalance())
	fmt.Fprintf(&b, "%-37s %12.3f\n", "     per-worker imbalance (max/mean)", r.WorkerImbalance())
	if r.TimelineDropped > 0 {
		fmt.Fprintf(&b, "WARNING: timeline dropped %d events to ring wraparound; the exported trace is truncated\n", r.TimelineDropped)
	}
	return b.String()
}

// PhaseNames returns phase names in display order; used by table writers
// that want stable column ordering.
func PhaseNames() []string {
	names := make([]string, 0, numPhases)
	for _, p := range Phases() {
		names = append(names, p.String())
	}
	return names
}
