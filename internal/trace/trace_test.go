package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestPhaseAccounting(t *testing.T) {
	s := NewStats()
	s.SetPhase(Shift)
	s.CountMessage(100)
	s.CountMessage(50)
	s.CountRecv(100)
	s.SetPhase(Reduce)
	s.CountMessage(10)

	if got := s.ByPhase[Shift]; got.Messages != 2 || got.Bytes != 150 || got.RecvMessages != 1 || got.RecvBytes != 100 {
		t.Errorf("shift stats %+v", got)
	}
	if got := s.ByPhase[Reduce]; got.Messages != 1 || got.Bytes != 10 {
		t.Errorf("reduce stats %+v", got)
	}
	if s.TotalMessages() != 3 || s.TotalBytes() != 160 {
		t.Errorf("totals %d/%d", s.TotalMessages(), s.TotalBytes())
	}
}

func TestTiming(t *testing.T) {
	s := NewStats()
	s.StartTiming()
	s.SetPhase(Compute)
	time.Sleep(5 * time.Millisecond)
	s.SetPhase(Shift)
	s.StopTiming()
	if s.ByPhase[Compute].Time < 2*time.Millisecond {
		t.Errorf("compute time %v too small", s.ByPhase[Compute].Time)
	}
	if s.CommTime() != s.ByPhase[Shift].Time {
		t.Errorf("CommTime %v != shift time %v", s.CommTime(), s.ByPhase[Shift].Time)
	}
	// Without timing, SetPhase records nothing.
	s2 := NewStats()
	s2.SetPhase(Compute)
	s2.SetPhase(Shift)
	if s2.ByPhase[Compute].Time != 0 {
		t.Error("untimed stats accumulated time")
	}
}

func TestAggregateCriticalPathAndSum(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.SetPhase(Shift)
	a.CountMessage(100)
	b.SetPhase(Shift)
	b.CountMessage(10)
	b.CountMessage(10)
	r := Aggregate([]*Stats{a, b})
	if r.Ranks != 2 {
		t.Errorf("ranks %d", r.Ranks)
	}
	cp := r.CriticalPath[Shift]
	// Max messages = 2 (rank b), max bytes = 100 (rank a).
	if cp.Messages != 2 || cp.Bytes != 100 {
		t.Errorf("critical path %+v", cp)
	}
	if sum := r.Sum[Shift]; sum.Messages != 3 || sum.Bytes != 120 {
		t.Errorf("sum %+v", sum)
	}
	// S sums critical-path events (max sends + max recvs) over the
	// communication phases: 2 sends, no recvs recorded.
	if r.S() != 2 {
		t.Errorf("S = %d, want 2", r.S())
	}
	if r.W() != 100 {
		t.Errorf("W = %d, want 100", r.W())
	}
}

func TestReportString(t *testing.T) {
	s := NewStats()
	s.SetPhase(Broadcast)
	s.CountMessage(10)
	r := Aggregate([]*Stats{s})
	out := r.String()
	if !strings.Contains(out, "broadcast") || !strings.Contains(out, "S/W") {
		t.Errorf("report rendering:\n%s", out)
	}
	// Phases with no activity are omitted.
	if strings.Contains(out, "reassign") {
		t.Errorf("idle phase rendered:\n%s", out)
	}
	// The footer labels S and W explicitly and includes both imbalance
	// figures (per-rank compute, per-worker), each on its own aligned
	// line.
	for _, want := range []string{"S (critical-path msg events)", "W (critical-path bytes)", "compute imbalance", "per-worker imbalance"} {
		if !strings.Contains(out, want) {
			t.Errorf("footer missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 6 {
		t.Fatalf("report too short:\n%s", out)
	}
	if !strings.HasSuffix(lines[len(lines)-4], " 1") { // S = 1 send event
		t.Errorf("S footer line %q should end with the value 1", lines[len(lines)-4])
	}
	if !strings.HasSuffix(lines[len(lines)-2], "1.000") { // no timing: neutral imbalance
		t.Errorf("imbalance footer line %q should end with 1.000", lines[len(lines)-2])
	}
	if !strings.HasSuffix(lines[len(lines)-1], "1.000") { // no pool ran: neutral worker imbalance
		t.Errorf("worker imbalance footer line %q should end with 1.000", lines[len(lines)-1])
	}
}

// TestWorkerImbalance checks the rank×worker lane aggregation: lanes
// from every rank pool into one max/mean figure, zero-lane reports stay
// neutral, and the summary JSON carries the value.
func TestWorkerImbalance(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.AddWorkerCompute(0, 3*time.Second)
	a.AddWorkerCompute(1, time.Second)
	b.AddWorkerCompute(0, 2*time.Second)
	b.AddWorkerCompute(1, 2*time.Second)
	r := Aggregate([]*Stats{a, b})
	// max 3s over mean (3+1+2+2)/4 = 2s.
	if got := r.WorkerImbalance(); got != 1.5 {
		t.Errorf("worker imbalance = %g, want 1.5", got)
	}
	if r.WorkerLanes != 4 {
		t.Errorf("worker lanes = %d, want 4", r.WorkerLanes)
	}
	if got := r.Summary().WorkerImbalance; got != 1.5 {
		t.Errorf("summary worker imbalance = %g, want 1.5", got)
	}
	// Repeated stamping accumulates per lane.
	a.AddWorkerCompute(1, 2*time.Second)
	if a.WorkerCompute[1] != 3*time.Second {
		t.Errorf("lane accumulation = %v", a.WorkerCompute[1])
	}
	// No pool ran: neutral figure.
	if got := Aggregate([]*Stats{NewStats()}).WorkerImbalance(); got != 1 {
		t.Errorf("poolless worker imbalance = %g, want 1", got)
	}
}

func TestPhaseNames(t *testing.T) {
	names := PhaseNames()
	if len(names) != 7 || names[0] != "compute" || names[6] != "other" {
		t.Errorf("PhaseNames = %v", names)
	}
	if Phase(42).String() == "" {
		t.Error("unknown phase should render")
	}
	if len(CommPhases()) != 5 {
		t.Errorf("CommPhases = %v", CommPhases())
	}
}

func TestReportJSON(t *testing.T) {
	s := NewStats()
	s.SetPhase(Shift)
	s.CountMessage(100)
	s.CountRecv(40)
	r := Aggregate([]*Stats{s})
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if decoded["ranks"].(float64) != 1 {
		t.Errorf("ranks field: %v", decoded["ranks"])
	}
	phases := decoded["phases"].([]any)
	if len(phases) != 1 {
		t.Fatalf("phases = %v", phases)
	}
	ph := phases[0].(map[string]any)
	if ph["phase"] != "shift" || ph["max_sent_bytes"].(float64) != 100 {
		t.Errorf("phase entry %v", ph)
	}
}

// TestAggregateEdgeCases pins Aggregate/Imbalance behavior for the
// degenerate inputs: zero ranks, an empty (but non-nil) rank list,
// zero-time phases, and a single rank.
func TestAggregateEdgeCases(t *testing.T) {
	// Zero ranks, nil and empty.
	for _, ranks := range [][]*Stats{nil, {}} {
		r := Aggregate(ranks)
		if r.Ranks != 0 {
			t.Errorf("Aggregate(%v).Ranks = %d, want 0", ranks, r.Ranks)
		}
		if r.S() != 0 || r.W() != 0 {
			t.Errorf("empty report S/W = %d/%d, want 0/0", r.S(), r.W())
		}
		for _, p := range Phases() {
			if got := r.Imbalance(p); got != 1 {
				t.Errorf("empty report Imbalance(%v) = %g, want 1", p, got)
			}
		}
		if _, err := r.JSON(); err != nil {
			t.Errorf("empty report JSON: %v", err)
		}
	}

	// Zero-time phases with message activity: imbalance stays neutral,
	// counts still aggregate.
	s := NewStats()
	s.SetPhase(Shift)
	s.CountMessage(8)
	r := Aggregate([]*Stats{s})
	if got := r.Imbalance(Shift); got != 1 {
		t.Errorf("zero-time phase imbalance = %g, want 1", got)
	}
	if r.S() != 1 || r.W() != 8 {
		t.Errorf("zero-time phase S/W = %d/%d, want 1/8", r.S(), r.W())
	}

	// Single rank: critical path equals the sum, imbalance is exactly 1.
	one := NewStats()
	one.ByPhase[Compute].Time = 3 * time.Second
	one.SetPhase(Reduce)
	one.CountMessage(100)
	r = Aggregate([]*Stats{one})
	if r.CriticalPath[Reduce] != r.Sum[Reduce] {
		t.Errorf("single rank: critical path %+v != sum %+v", r.CriticalPath[Reduce], r.Sum[Reduce])
	}
	if got := r.ComputeImbalance(); got != 1 {
		t.Errorf("single rank compute imbalance = %g, want 1", got)
	}
}

// TestSummaryRoundTrip checks that Report.JSON output decodes back via
// ParseSummary with the footer fields (S, W, compute imbalance) intact,
// so serialized reports stay backward-readable as fields accrete.
func TestSummaryRoundTrip(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.SetPhase(Shift)
	a.CountMessage(100)
	a.CountRecv(40)
	a.ByPhase[Compute].Time = 3 * time.Second
	b.ByPhase[Compute].Time = time.Second
	r := Aggregate([]*Stats{a, b})

	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSummary(data)
	if err != nil {
		t.Fatalf("ParseSummary: %v\n%s", err, data)
	}
	want := r.Summary()
	if got.Ranks != want.Ranks || got.S != want.S || got.W != want.W {
		t.Errorf("round trip header: got %+v want %+v", got, want)
	}
	if got.ComputeImbalance != want.ComputeImbalance || got.ComputeImbalance != 1.5 {
		t.Errorf("round trip compute imbalance = %g, want %g", got.ComputeImbalance, want.ComputeImbalance)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("round trip phases: got %d want %d", len(got.Phases), len(want.Phases))
	}
	for i := range got.Phases {
		if got.Phases[i] != want.Phases[i] {
			t.Errorf("phase %d: got %+v want %+v", i, got.Phases[i], want.Phases[i])
		}
	}

	// Backward readability: a pre-footer serialization (no
	// compute_imbalance key) still decodes, with the new field zero.
	legacy := []byte(`{"ranks":2,"s_critical_path":3,"w_critical_path_bytes":140,"phases":[]}`)
	old, err := ParseSummary(legacy)
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	if old.S != 3 || old.W != 140 || old.ComputeImbalance != 0 {
		t.Errorf("legacy decode = %+v", old)
	}
}

func TestImbalance(t *testing.T) {
	a, b := NewStats(), NewStats()
	a.ByPhase[Compute].Time = 3 * time.Second
	b.ByPhase[Compute].Time = 1 * time.Second
	a.SetPhase(Compute)
	b.SetPhase(Compute)
	a.CountPairs(10)
	b.CountPairs(20)
	b.CountPairs(10)
	r := Aggregate([]*Stats{a, b})
	// max 3s over mean 2s.
	if got := r.ComputeImbalance(); got != 1.5 {
		t.Errorf("imbalance = %g, want 1.5", got)
	}
	// max 30 pairs over mean 20.
	if got := r.PairImbalance(); got != 1.5 {
		t.Errorf("pair imbalance = %g, want 1.5", got)
	}
	// Untouched phase reports neutral balance.
	if got := r.Imbalance(Shift); got != 1 {
		t.Errorf("idle-phase imbalance = %g, want 1", got)
	}
	empty := Aggregate(nil)
	if got := empty.ComputeImbalance(); got != 1 {
		t.Errorf("empty report imbalance = %g", got)
	}
	if got := empty.PairImbalance(); got != 1 {
		t.Errorf("empty report pair imbalance = %g", got)
	}
}

func TestPhaseStatsMaxAndAdd(t *testing.T) {
	a := PhaseStats{Messages: 1, Bytes: 10, RecvMessages: 5, RecvBytes: 2, Time: time.Second}
	b := PhaseStats{Messages: 3, Bytes: 5, RecvMessages: 1, RecvBytes: 7, Time: time.Millisecond}
	m := a
	m.Max(b)
	if m.Messages != 3 || m.Bytes != 10 || m.RecvMessages != 5 || m.RecvBytes != 7 || m.Time != time.Second {
		t.Errorf("Max = %+v", m)
	}
	s := a
	s.Add(b)
	if s.Messages != 4 || s.Bytes != 15 || s.Events() != 10 || s.Volume() != 24 {
		t.Errorf("Add = %+v", s)
	}
}
