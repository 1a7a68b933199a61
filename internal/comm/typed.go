package comm

// Typed point-to-point operations: the zero-copy transport the timestep
// loops in internal/core run on. Payload slices move through the
// mailboxes by reference — no encode/decode round-trip — while every
// send and receive is charged the byte size the encoded wire format
// would have had (phys.WireBytes for particles, 8 bytes per float64, a
// 4-byte header for framed payloads). The substrate's byte counts are
// the paper's measured S and W quantities, so the fidelity constraint is
// on accounting, not on actually serializing; the encoded path remains
// as the verification fallback and the two are asserted bitwise
// identical by internal/core's transport property tests.
//
// Ownership-transfer contract (extending the buffer hand-off rules on
// Send): a typed send transfers ownership of the payload slice to the
// receiver. The sender must not WRITE the slice after the send returns;
// reading a still-referenced slice is fine (the overlap shift computes
// on a buffer that is in flight — receivers only read it as well). The
// slice returned by a typed receive is owned by the receiver outright
// and may be reused as scratch or a send buffer in later steps. A
// sender wanting to write a previously sent buffer again must first
// pass a synchronization point that transitively orders every reader
// behind the reuse: the timestep loops use the next step's team
// broadcast/reduce pair, and double-buffer the shift exchange so the
// overwrite happens two steps after the hand-off.

import "repro/internal/phys"

// SendParticles delivers ps to rank `to` by reference, charging the
// sender's active phase phys.WireBytes(len(ps)) — the particle wire
// format's exact size. Ownership of ps transfers to the receiver.
func (c *Comm) SendParticles(to, tag int, ps []phys.Particle) {
	c.sendMsg(to, tag, particlesMsg(ps))
}

// RecvParticles blocks for the next typed particle message from rank
// `from` and returns its payload, owned by the caller.
func (c *Comm) RecvParticles(from, tag int) []phys.Particle {
	return c.recvMsg(from, tag).particlesPayload(c)
}

// SendrecvParticles is Sendrecv over the typed transport: it ships ps to
// rank `to` and adopts the payload arriving from rank `from`. The
// degenerate single-rank ring returns ps untouched without involving the
// mailboxes or the accounting. Like Sendrecv, the exchange offers send
// and receive simultaneously so a ring shift cannot deadlock on a full
// mailbox or socket queue.
func (c *Comm) SendrecvParticles(to int, ps []phys.Particle, from, tag int) []phys.Particle {
	if to == c.rank && from == c.rank {
		return ps
	}
	return c.sendrecvMsg(to, tag, particlesMsg(ps), from).particlesPayload(c)
}

// SendTeamParticles is SendParticles with a source-team frame: the
// message carries the sending team's id alongside the payload and is
// charged the framed wire size, 4 + phys.WireBytes(len(ps)) — a 4-byte
// source-team header followed by the particles in the 52-byte wire
// codec, which is what the socket mesh ships (the header travels in
// the frame's Hdr field).
func (c *Comm) SendTeamParticles(to, tag, team int, ps []phys.Particle) {
	c.sendMsg(to, tag, teamParticlesMsg(team, ps))
}

// RecvTeamParticles blocks for the next framed particle message from
// rank `from` and returns the source team and the payload.
func (c *Comm) RecvTeamParticles(from, tag int) (int, []phys.Particle) {
	return c.recvMsg(from, tag).teamParticlesPayload(c)
}

// SendrecvTeamParticles is SendrecvParticles for framed payloads: the
// shift primitive of the cutoff algorithm's exchange window.
func (c *Comm) SendrecvTeamParticles(to, team int, ps []phys.Particle, from, tag int) (int, []phys.Particle) {
	if to == c.rank && from == c.rank {
		return team, ps
	}
	return c.sendrecvMsg(to, tag, teamParticlesMsg(team, ps), from).teamParticlesPayload(c)
}

// SendF64s delivers vals to rank `to` by reference, charging 8 bytes per
// element — the F64sToBytes wire size. Ownership transfers.
func (c *Comm) SendF64s(to, tag int, vals []float64) {
	c.sendMsg(to, tag, f64sMsg(vals))
}

// RecvF64s blocks for the next typed float64 message from rank `from`
// and returns its payload, owned by the caller.
func (c *Comm) RecvF64s(from, tag int) []float64 {
	return c.recvMsg(from, tag).f64sPayload(c)
}

// SendrecvF64s is Sendrecv over typed float64 payloads, the hop of the
// scratch-reusing ring reductions (ReduceScatterF64sInto).
func (c *Comm) SendrecvF64s(to int, vals []float64, from, tag int) []float64 {
	if to == c.rank && from == c.rank {
		return vals
	}
	return c.sendrecvMsg(to, tag, f64sMsg(vals), from).f64sPayload(c)
}
