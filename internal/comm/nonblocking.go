package comm

import (
	"fmt"

	"repro/internal/phys"
)

// Nonblocking point-to-point operations, the substrate for overlapping
// communication with computation in the shift loop (the optimization
// production MD codes layer on top of the paper's algorithm; see
// core.AllPairs with Overlap set).

// Request is an in-flight nonblocking operation. It belongs to the rank
// that created it; Wait must be called from that rank's goroutine.
type Request struct {
	comm *Comm
	// For sends: sent is closed once the payload is in the destination
	// mailbox (nil when the fast path delivered synchronously).
	sent chan struct{}
	// For receives: the source and tag to collect at Wait time.
	from, tag int
	isRecv    bool
}

// Isend starts a nonblocking send of data to rank `to` under tag and
// returns a Request to Wait on. The payload is counted against the
// caller's active phase immediately. If the destination mailbox has
// space the send completes inline; otherwise a goroutine completes it,
// so the caller can proceed to computation without deadlocking even
// against a slow receiver.
func (c *Comm) Isend(to, tag int, data []byte) *Request {
	return c.isendMsg(to, tag, bytesMsg(data))
}

// IsendParticles is Isend for a typed particle payload: the slice moves
// by reference (ownership transfers to the receiver) and the send is
// charged the wire-format size phys.WireBytes(len(ps)).
func (c *Comm) IsendParticles(to, tag int, ps []phys.Particle) *Request {
	return c.isendMsg(to, tag, particlesMsg(ps))
}

// IsendTeamParticles is IsendParticles with a source-team frame, charged
// the framed wire size (4 + phys.WireBytes(len(ps))).
func (c *Comm) IsendTeamParticles(to, tag, team int, ps []phys.Particle) *Request {
	return c.isendMsg(to, tag, teamParticlesMsg(team, ps))
}

// isendMsg is the shared nonblocking delivery path under Isend and the
// typed variants.
func (c *Comm) isendMsg(to, tag int, m message) *Request {
	c.checkPeer(to)
	if to == c.rank {
		panic(fmt.Sprintf("comm: self-send (use local copies instead) (%s)", c.diag()))
	}
	src, dst := c.group[c.rank], c.group[to]
	m.comm = c.id
	m.tag = tag
	m.seq = c.rt.nextSeq(src, dst)
	c.stats.CountMessage(m.wire)
	c.tr.Send(dst, tag, m.wire, m.seq)
	if c.rt.remote(dst) {
		c.cm.countSend(int(c.stats.Phase()), src, dst, m.wire, c.rt.proc.queueDepthTo(dst))
		return c.isendRemote(src, dst, m)
	}
	box := c.rt.boxes[dst][src]
	c.cm.countSend(int(c.stats.Phase()), src, dst, m.wire, len(box))

	// An earlier overflow send to the same destination that is still in
	// flight forbids the fast path: delivering inline would reorder the
	// stream.
	prev := c.rt.sendTail[src][dst]
	if prev != nil {
		select {
		case <-prev.sent:
			prev = nil
			c.rt.sendTail[src][dst] = nil
		default:
		}
	}
	if prev == nil {
		select {
		case box <- m:
			return c.doneRequest()
		default:
		}
	}
	r := &Request{comm: c, sent: make(chan struct{})}
	go func() {
		defer close(r.sent)
		if prev != nil {
			select {
			case <-prev.sent:
			case <-c.rt.abort:
				return
			}
		}
		select {
		case box <- m:
		case <-c.rt.abort:
		}
	}()
	c.rt.sendTail[src][dst] = r
	return r
}

// Irecv registers interest in the next message from rank `from` under
// tag. No data moves until Wait; the incoming message parks in the
// mailbox buffer meanwhile. The same Request collects either transport:
// use Wait for encoded payloads, WaitParticles/WaitTeamParticles for
// typed ones.
func (c *Comm) Irecv(from, tag int) *Request {
	c.checkPeer(from)
	if from == c.rank {
		panic(fmt.Sprintf("comm: self-receive (%s)", c.diag()))
	}
	return &Request{comm: c, from: from, tag: tag, isRecv: true}
}

// Wait completes the operation: for receives it blocks for and returns
// the payload; for sends it blocks until the payload is delivered to the
// destination mailbox and returns nil.
func (r *Request) Wait() []byte {
	if r.isRecv {
		return r.comm.recvMsg(r.from, r.tag).bytesPayload(r.comm)
	}
	r.waitSent()
	return nil
}

// WaitParticles completes a typed particle receive: it blocks for the
// message and returns the payload slice, owned by the caller outright.
func (r *Request) WaitParticles() []phys.Particle {
	if !r.isRecv {
		panic("comm: WaitParticles on a send request")
	}
	return r.comm.recvMsg(r.from, r.tag).particlesPayload(r.comm)
}

// WaitTeamParticles completes a framed typed particle receive, returning
// the source-team frame alongside the payload.
func (r *Request) WaitTeamParticles() (int, []phys.Particle) {
	if !r.isRecv {
		panic("comm: WaitTeamParticles on a send request")
	}
	return r.comm.recvMsg(r.from, r.tag).teamParticlesPayload(r.comm)
}

func (r *Request) waitSent() {
	if r.sent != nil {
		select {
		case <-r.sent:
		case <-r.comm.rt.abort:
			panic(errAborted{})
		}
	}
}

// SendrecvParticlesOverlap performs the shift exchange of
// SendrecvParticles but runs overlap() between posting the send and
// collecting the receive, letting computation on the outgoing buffer
// proceed while the payloads move. The outgoing slice may still be read
// by overlap() while in flight (receivers only read it too); see the
// ownership contract on SendParticles for when the buffer may be
// written again.
func (c *Comm) SendrecvParticlesOverlap(to int, ps []phys.Particle, from, tag int, overlap func()) []phys.Particle {
	if to == c.rank && from == c.rank {
		overlap()
		return ps
	}
	send := c.IsendParticles(to, tag, ps)
	recv := c.Irecv(from, tag)
	overlap()
	out := recv.WaitParticles()
	send.waitSent()
	return out
}
