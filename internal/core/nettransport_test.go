package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/phys"
	"repro/internal/trace"
)

// sameReportCounts asserts two reports agree on every communication
// quantity (messages and bytes, critical-path and sum, per phase),
// ignoring only wall-clock time. This is the accounting half of the
// transport-fidelity contract: swapping the transport must not move a
// single counted message or byte.
func sameReportCounts(t *testing.T, want, got *trace.Report) {
	t.Helper()
	if want.Ranks != got.Ranks {
		t.Fatalf("rank count: want %d, got %d", want.Ranks, got.Ranks)
	}
	check := func(label string, a, b trace.PhaseStats) {
		if a.Messages != b.Messages || a.Bytes != b.Bytes ||
			a.RecvMessages != b.RecvMessages || a.RecvBytes != b.RecvBytes {
			t.Errorf("%s: want {S=%d W=%d R=%d RW=%d}, got {S=%d W=%d R=%d RW=%d}",
				label, a.Messages, a.Bytes, a.RecvMessages, a.RecvBytes,
				b.Messages, b.Bytes, b.RecvMessages, b.RecvBytes)
		}
	}
	for _, ph := range trace.Phases() {
		check(fmt.Sprintf("critical-path %v", ph), want.CriticalPath[ph], got.CriticalPath[ph])
		check(fmt.Sprintf("sum %v", ph), want.Sum[ph], got.Sum[ph])
	}
}

// samePhysState asserts exact struct equality of two particle sets —
// not approximate agreement: both runs perform the identical
// floating-point operations in the identical order, so any difference
// at all is a transport bug.
func samePhysState(t *testing.T, want, got []phys.Particle) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("got %d particles, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("particle %d differs between transports:\n want %+v\n got  %+v", i, want[i], got[i])
		}
	}
}

// runOverSockets executes an algorithm collectively across `procs`
// in-process "OS processes" joined over a unix-socket mesh, splitting
// the pr.P world ranks evenly among them. Every process of a
// distributed run returns the complete merged state and report; the
// helper asserts the processes agree with each other and returns one
// copy for comparison against the single-process run.
//
// This is the socket half of the transport-fidelity contract: the wire
// transport must reproduce the in-process run bit for bit — final
// particle state, per-phase message/byte counts, and the measured S/W
// those counts feed — because both transports charge the identical wire
// sizes and execute the identical deterministic schedule.
func runOverSockets(t *testing.T, procs int, pr Params, ps []phys.Particle,
	run func([]phys.Particle, Params) ([]phys.Particle, *trace.Report, error)) ([]phys.Particle, *trace.Report) {
	t.Helper()
	if pr.P%procs != 0 {
		t.Fatalf("p=%d not divisible by procs=%d", pr.P, procs)
	}
	rendezvous := sockRendezvous(t)
	states := make([][]phys.Particle, procs)
	reports := make([]*trace.Report, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc, err := comm.JoinProcs(rendezvous, procs, pr.P/procs)
			if err != nil {
				errs[i] = fmt.Errorf("join: %w", err)
				return
			}
			defer proc.Close()
			local := pr
			local.Proc = proc
			out, rep, err := run(ps, local)
			if err != nil {
				errs[proc.ID()] = err
				return
			}
			states[proc.ID()] = out
			reports[proc.ID()] = rep
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
	// Every process gathered the same merged result.
	for i := 1; i < procs; i++ {
		samePhysState(t, states[0], states[i])
		sameReportCounts(t, reports[0], reports[i])
	}
	return states[0], reports[0]
}

// sockRendezvous returns a unix-socket rendezvous address in a fresh
// temporary directory. The directory is named independently of the
// test: t.TempDir embeds the subtest name, and a long one pushes the
// mesh's derived listener paths past the 108-byte sun_path limit.
func sockRendezvous(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "nt")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return "unix:" + filepath.Join(dir, "r.sock")
}

// checkSocketMatchesInProcess runs the algorithm once in-process and
// once distributed over `procs` socket-joined processes and requires
// bit-identical state plus identical per-phase accounting.
func checkSocketMatchesInProcess(t *testing.T, procs int, pr Params, ps []phys.Particle,
	run func([]phys.Particle, Params) ([]phys.Particle, *trace.Report, error)) {
	t.Helper()
	local, localRep, err := run(ps, pr)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	socket, socketRep := runOverSockets(t, procs, pr, ps, run)
	samePhysState(t, local, socket)
	sameReportCounts(t, localRep, socketRep)
}

func TestAllPairsSocketMatchesInProcess(t *testing.T) {
	cases := []struct {
		procs, p, c, n int
		overlap        bool
	}{
		{2, 2, 1, 16, false},
		{2, 4, 2, 24, false},
		{2, 4, 2, 24, true},
		{4, 4, 1, 24, false},
		{2, 4, 1, 24, false},
		{4, 4, 2, 24, false},
		{4, 4, 2, 24, true},
		{2, 8, 2, 32, false},
		{2, 8, 2, 32, true},
		{4, 16, 4, 48, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("procs=%d/p=%d/c=%d/overlap=%v", tc.procs, tc.p, tc.c, tc.overlap), func(t *testing.T) {
			t.Parallel()
			pr := defaultParams(tc.p, tc.c, 4)
			pr.Overlap = tc.overlap
			ps := phys.InitUniform(tc.n, pr.Box, 7)
			checkSocketMatchesInProcess(t, tc.procs, pr, ps, AllPairs)
		})
	}
}

func TestCutoffSocketMatchesInProcess(t *testing.T) {
	cases := []struct {
		procs, p, c, dim, n int
		boundary            phys.Boundary
		overlap             bool
	}{
		{2, 4, 1, 1, 32, phys.Periodic, false},
		{2, 8, 1, 1, 64, phys.Periodic, false},
		{2, 8, 1, 1, 64, phys.Periodic, true},
		{4, 8, 1, 1, 64, phys.Periodic, true},
		{4, 8, 1, 1, 64, phys.Reflective, false},
		{2, 16, 2, 1, 64, phys.Reflective, false},
		{2, 16, 2, 1, 64, phys.Reflective, true},
		{4, 16, 1, 2, 96, phys.Reflective, false},
		{4, 16, 1, 2, 96, phys.Reflective, true},
		{4, 32, 2, 2, 96, phys.Reflective, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("procs=%d/p=%d/dim=%d/%v/overlap=%v", tc.procs, tc.p, tc.dim, tc.boundary, tc.overlap), func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, tc.c, tc.dim, tc.boundary)
			pr.Overlap = tc.overlap
			ps := phys.InitUniform(tc.n, pr.Box, 11)
			checkSocketMatchesInProcess(t, tc.procs, pr, ps, Cutoff)
		})
	}
}

func TestMidpointSocketMatchesInProcess(t *testing.T) {
	cases := []struct {
		name             string
		procs, p, dim, n int
		run              func([]phys.Particle, Params) ([]phys.Particle, *trace.Report, error)
	}{
		{"procs=2", 2, 4, 1, 32, Midpoint1D},
		{"procs=4", 4, 4, 1, 32, Midpoint1D},
		// 2D: migration over all eight neighbor directions.
		{"procs=4/p=16/dim=2", 4, 16, 2, 64, Midpoint2D},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			pr := cutoffParams(tc.p, 1, tc.dim, phys.Reflective)
			ps := phys.InitUniform(tc.n, pr.Box, 13)
			checkSocketMatchesInProcess(t, tc.procs, pr, ps, tc.run)
		})
	}
}

// TestSocketBackToBackRuns drives two complete simulations over the
// same mesh, mirroring what cmd/nbody does (a dry run inside New, then
// the real run). The second run must not see frames from the first:
// processes detach from the mesh before the result exchange, so a
// fast peer entering run two cannot have its frames swallowed by run
// one's dead mailboxes.
func TestSocketBackToBackRuns(t *testing.T) {
	const procs = 2
	pr := defaultParams(4, 2, 3)
	ps := phys.InitUniform(24, pr.Box, 17)

	base, baseRep, err := AllPairs(ps, pr)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	rendezvous := sockRendezvous(t)
	type result struct {
		states  [2][]phys.Particle
		reports [2]*trace.Report
	}
	results := make([]result, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc, err := comm.JoinProcs(rendezvous, procs, pr.P/procs)
			if err != nil {
				errs[i] = fmt.Errorf("join: %w", err)
				return
			}
			defer proc.Close()
			local := pr
			local.Proc = proc
			for r := 0; r < 2; r++ {
				out, rep, err := AllPairs(ps, local)
				if err != nil {
					errs[proc.ID()] = fmt.Errorf("run %d: %w", r, err)
					return
				}
				results[proc.ID()].states[r] = out
				results[proc.ID()].reports[r] = rep
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", i, err)
		}
	}
	for i := 0; i < procs; i++ {
		for r := 0; r < 2; r++ {
			samePhysState(t, base, results[i].states[r])
			sameReportCounts(t, baseRep, results[i].reports[r])
		}
	}
}
