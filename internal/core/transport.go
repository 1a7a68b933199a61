package core

import (
	"repro/internal/comm"
	"repro/internal/phys"
)

// xfer is the per-rank transport the timestep loops run on: the team
// broadcast, the exchange-buffer shifts, the force reduction, and
// particle migration. Payload slices move through the comm mailboxes by
// reference under the ownership-transfer contract (see
// internal/comm/typed.go) — zero serialization in-process — while every
// message is charged the exact size of the 52-byte particle wire codec
// the socket mesh ships, so the measured S and W are the wire's. The
// socket invariance tests (nettransport_test.go) hold an in-process run
// to the same run over the socket codec bitwise, state and per-phase
// counts alike.
//
// A transport belongs to one rank; construct it inside the rank's
// closure.
type xfer struct {
	frame   int
	overlap bool

	team     []phys.Particle // broadcast replica scratch
	exchange []phys.Particle // current exchange payload
	exTeam   int             // source team of the exchange payload
	spare    []phys.Particle // all-pairs double-buffer (end of step k−2)
	forces   []float64       // flattened reduction payload

	pendSend, pendRecv *comm.Request
}

// newXfer builds the transport for one rank. frame is the rank's team
// id when exchange buffers carry a source-team frame (the cutoff
// algorithm), -1 for the unframed all-pairs exchange. overlap must
// match Params.Overlap: it selects the exchange-buffer reuse discipline
// (see loadExchange).
func newXfer(frame int, overlap bool) *xfer {
	return &xfer{frame: frame, overlap: overlap}
}

// Exchange-buffer reuse discipline.
//
// Synchronous shifts pass buffers along a chain of custody: every
// holder reads the buffer strictly before forwarding it, so the final
// holder — the only rank that ever writes it again, at the next step's
// loadExchange — is already ordered after every read, and a single
// retained slot is safe (the cutoff loop uses this).
//
// Overlap mode breaks the chain: a sender computes on the buffer while
// it is in flight, concurrently with everything downstream. The
// all-pairs loop therefore double-buffers the load: loadExchange writes
// the buffer held at the end of step k−2, never the one just received.
// That deferral is safe because the all-pairs ring closes — s·c ≡ 0
// (mod T), so each step's buffer returns to the rank that loaded it —
// and the intervening step's shift messages therefore order every
// reader of the step-k−2 buffer before rank's first receive of step
// k−1, which precedes the write. The cutoff schedule's ring does not
// close in general, so no such ordering exists; in overlap mode the
// cutoff transport loads into a fresh buffer each step instead (one
// O(n/T) allocation per step, alongside migration's unavoidable ones).

// bcastTeam broadcasts the team leader's particles (rank 0 of tc;
// others pass nil) and returns the rank's private replica with force
// accumulators cleared. The replica is transport-owned scratch, valid
// until the next bcastTeam.
func (x *xfer) bcastTeam(tc *comm.Comm, mine []phys.Particle) []phys.Particle {
	// The leader's slice is aliased by every team member until each has
	// taken its copy; the leader writes it again only after the force
	// reduction, which every member enters after copying.
	x.team = tc.BcastParticles(0, mine, x.team)
	phys.ClearForces(x.team)
	return x.team
}

// loadExchange (re)fills the exchange buffer from the replica the
// preceding bcastTeam produced, tagging it with the source-team frame
// fixed at construction.
func (x *xfer) loadExchange(team []phys.Particle) {
	x.exTeam = x.frame
	if x.frame >= 0 && x.overlap {
		// Cutoff overlap: fresh buffer, see the reuse discipline above.
		x.exchange = append([]phys.Particle(nil), team...)
		return
	}
	target := x.spare
	if x.frame >= 0 {
		// Synchronous chain of custody: the end-of-step buffer itself is
		// the safe write target.
		target = x.exchange
	} else {
		x.spare = x.exchange
	}
	x.exchange = append(target[:0], team...)
}

// view exposes the particles currently in the exchange buffer and the
// team they originate from (-1 on the unframed all-pairs exchange).
// The slice is read-only: it may alias a buffer that is simultaneously
// in flight to a neighbor.
func (x *xfer) view() (srcTeam int, ps []phys.Particle) {
	return x.exTeam, x.exchange
}

// shift synchronously exchanges the buffer with the ring neighbors:
// ship to rank `to`, adopt the buffer arriving from rank `from`.
func (x *xfer) shift(rc *comm.Comm, to, from, tag int) {
	if x.frame >= 0 {
		x.exTeam, x.exchange = rc.SendrecvTeamParticles(to, x.exTeam, x.exchange, from, tag)
		return
	}
	x.exchange = rc.SendrecvParticles(to, x.exchange, from, tag)
}

// shiftOverlap is the unframed shift with the transfer hidden behind
// overlap(), which computes on the outgoing buffer while it is in
// flight.
func (x *xfer) shiftOverlap(rc *comm.Comm, to, from, tag int, overlap func()) {
	x.exchange = rc.SendrecvParticlesOverlap(to, x.exchange, from, tag, overlap)
}

// startShift posts the framed exchange nonblockingly; finishShift
// adopts the received buffer. Between the two the current buffer may
// only be read (it is in flight).
func (x *xfer) startShift(rc *comm.Comm, to, from, tag int) {
	x.pendSend = rc.IsendTeamParticles(to, tag, x.exTeam, x.exchange)
	x.pendRecv = rc.Irecv(from, tag)
}

func (x *xfer) finishShift() {
	x.exTeam, x.exchange = x.pendRecv.WaitTeamParticles()
	x.pendSend.Wait()
	x.pendSend, x.pendRecv = nil, nil
}

// reduceForces sum-reduces the replica's force accumulators to the team
// leader (rank 0 of tc), returning the flattened totals there and nil
// elsewhere. The result is transport-owned scratch.
func (x *xfer) reduceForces(tc *comm.Comm, team []phys.Particle) []float64 {
	// Non-leaders hand the scratch slice to their parent; rewriting it
	// here next step is ordered behind the parent's read by the next
	// broadcast (root completes the reduce before broadcasting, and the
	// flatten below runs after this rank receives that broadcast).
	x.forces = flattenForcesInto(x.forces[:0], team)
	return tc.ReduceF64sInPlace(0, x.forces)
}
