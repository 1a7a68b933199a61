package comm

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// CollectiveAlg selects the algorithm used by collectives on a
// communicator.
type CollectiveAlg int

const (
	// Tree uses binomial trees: log(n) stages, the paper's model
	// assumption for broadcast and reduction.
	Tree CollectiveAlg = iota
	// Flat uses linear algorithms: the root sends to (or receives from)
	// every member directly. This is the "no-tree" configuration of the
	// Intrepid experiments.
	Flat
	// Ring passes data around a ring; offered for bandwidth-bound
	// broadcasts and used by tests as a third independent
	// implementation.
	Ring
)

func (a CollectiveAlg) String() string {
	switch a {
	case Tree:
		return "tree"
	case Flat:
		return "flat"
	case Ring:
		return "ring"
	default:
		return fmt.Sprintf("CollectiveAlg(%d)", int(a))
	}
}

// Options configures a run of the runtime. The zero value is the
// default configuration: tree collectives, observation off.
type Options struct {
	// Collectives selects the collective algorithm (default Tree).
	Collectives CollectiveAlg
	// Observe, when non-nil, records every rank's activity into the
	// carried timeline (per-event tracing) and metrics registry. Nil
	// disables observation; the instrumented paths then cost only nil
	// checks.
	Observe *obs.Observer
	// MailboxCap overrides the per-(src,dst) mailbox buffer capacity:
	// 0 means the default (8), negative means unbuffered. Tests shrink
	// it to prove point-to-point patterns correct on any
	// bounded-capacity transport.
	MailboxCap int
}

// Comm is one rank's handle on a communicator: a fixed group of world
// ranks with private message traffic. It is analogous to an MPI
// communicator. A Comm value belongs to a single rank and must not be
// shared between goroutines.
type Comm struct {
	rt    *Runtime
	id    uint64
	rank  int   // rank within this communicator
	group []int // world rank of each communicator rank
	opts  Options
	stats *trace.Stats
	tr    *obs.Tracer  // nil = timeline disabled
	cm    *commMetrics // nil = metrics disabled
	// done is the shared Request returned by nonblocking sends that
	// complete synchronously (fast path). It carries no per-operation
	// state — Wait/waitSent on it return immediately — so reusing one
	// instance keeps the steady-state Sendrecv paths allocation-free.
	done *Request
}

// doneRequest returns the rank's shared already-completed send request,
// allocating it on first use. Comm is single-goroutine by contract, so
// the lazy initialization is race-free.
func (c *Comm) doneRequest() *Request {
	if c.done == nil {
		c.done = &Request{comm: c}
	}
	return c.done
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.group[c.rank] }

// Stats returns the rank's accounting record (shared across all
// communicators of the rank).
func (c *Comm) Stats() *trace.Stats { return c.stats }

// SetPhase labels subsequent communication and computation with phase.
func (c *Comm) SetPhase(p trace.Phase) { c.stats.SetPhase(p) }

// Tracer returns the rank's timeline tracer (nil when the run is not
// observed; a nil tracer accepts all calls as no-ops).
func (c *Comm) Tracer() *obs.Tracer { return c.tr }

// Metrics returns the run's metrics registry (nil when the run is not
// observed; a nil registry hands out nil no-op instruments).
func (c *Comm) Metrics() *obs.Registry {
	if c.opts.Observe == nil {
		return nil
	}
	return c.opts.Observe.Metrics
}

// Options returns the options the communicator was created with.
func (c *Comm) Options() Options { return c.opts }

// diag identifies the caller for panic messages: world rank, active
// trace phase, and transport — enough to localize a schedule bug in a
// multi-process run from a single panic line.
func (c *Comm) diag() string {
	return fmt.Sprintf("world rank %d, phase %v, transport %s",
		c.group[c.rank], c.stats.Phase(), c.rt.transportName())
}

// checkPeer panics if peer is not a valid rank of the communicator.
func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= len(c.group) {
		panic(fmt.Sprintf("comm: peer %d outside communicator of size %d (%s)", peer, len(c.group), c.diag()))
	}
}

// Send delivers data to rank `to` of this communicator under tag. Send
// blocks only when the destination mailbox is full.
//
// Buffer hand-off contract: payloads are never copied by the runtime.
// Send transfers ownership of data to the receiver — the sender must not
// write the slice after Send returns (reading a still-referenced copy is
// fine, e.g. computing on a buffer that is in flight). Conversely, the
// slice returned by Recv is owned by the receiver outright and may be
// reused as a scratch or send buffer in later steps. Collectives follow
// the same rule with one refinement: a broadcast payload may be aliased
// by every rank of the communicator until those ranks are known to have
// finished with it, so a root wanting to reuse its broadcast buffer must
// first pass a synchronization point that transitively orders every
// member behind the reuse (the timestep loops in internal/core use the
// team force reduction for this). This contract is what lets the
// steady-state timestep run with zero allocations in its encode, decode,
// and frame paths.
func (c *Comm) Send(to, tag int, data []byte) {
	c.sendMsg(to, tag, bytesMsg(data))
}

// sendMsg is the shared delivery path under Send and the typed sends:
// it stamps the communicator id, delivers into the destination mailbox,
// and charges m.wire bytes to the sender's active phase and the obs
// instruments.
func (c *Comm) sendMsg(to, tag int, m message) {
	c.checkPeer(to)
	if to == c.rank {
		panic(fmt.Sprintf("comm: self-send (use local copies instead) (%s)", c.diag()))
	}
	src, dst := c.group[c.rank], c.group[to]
	m.comm = c.id
	m.tag = tag
	m.seq = c.rt.nextSeq(src, dst)
	if c.rt.remote(dst) {
		c.cm.countSend(int(c.stats.Phase()), src, dst, m.wire, c.rt.proc.queueDepthTo(dst))
		c.rt.netSend(src, dst, m)
	} else {
		box := c.rt.boxes[dst][src]
		c.cm.countSend(int(c.stats.Phase()), src, dst, m.wire, len(box))
		select {
		case box <- m:
		case <-c.rt.abort:
			panic(errAborted{})
		}
	}
	c.stats.CountMessage(m.wire)
	c.tr.Send(dst, tag, m.wire, m.seq)
}

// Recv blocks until the next message from rank `from` of this
// communicator arrives and returns its payload. The message must carry
// the expected communicator id and tag — the algorithms in this
// repository are deterministic, so a mismatch indicates a schedule bug
// and panics rather than being silently reordered.
func (c *Comm) Recv(from, tag int) []byte {
	return c.recvMsg(from, tag).bytesPayload(c)
}

// recvMsg blocks for the next message from `from` under tag and returns
// it, charging m.wire bytes to the receiver's active phase.
func (c *Comm) recvMsg(from, tag int) message {
	c.checkPeer(from)
	if from == c.rank {
		panic(fmt.Sprintf("comm: self-receive (%s)", c.diag()))
	}
	box := c.rt.boxes[c.group[c.rank]][c.group[from]]
	t0 := c.tr.Now()
	select {
	case m := <-box:
		c.finishRecv(m, from, tag, t0)
		return m
	case <-c.rt.abort:
		panic(errAborted{})
	}
}

// finishRecv validates and accounts one message taken from `from`'s
// mailbox; t0 is the tracer timestamp taken when the receive was
// posted.
func (c *Comm) finishRecv(m message, from, tag int, t0 int64) {
	if m.comm != c.id || m.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected (comm %x, tag %d) from %d, got (comm %x, tag %d) (%s)",
			c.rank, c.id, tag, from, m.comm, m.tag, c.diag()))
	}
	c.stats.CountRecv(m.wire)
	c.tr.Recv(t0, c.group[from], tag, m.wire, m.seq)
	c.cm.countRecv(int(c.stats.Phase()), c.group[from], c.group[c.rank], m.wire)
}

// Payload accessors: the algorithms in this repository are
// deterministic, so a receive finding the wrong payload representation
// indicates a schedule bug mixing typed and byte-encoded messages and
// panics rather than silently converting.

func (m message) bytesPayload(c *Comm) []byte {
	if m.kind != payloadBytes {
		panic(fmt.Sprintf("comm: expected a byte payload, got %v (tag %d, %s)", m.kind, m.tag, c.diag()))
	}
	return m.data
}

func (m message) particlesPayload(c *Comm) []phys.Particle {
	if m.kind != payloadParticles {
		panic(fmt.Sprintf("comm: expected a particle payload, got %v (tag %d, %s)", m.kind, m.tag, c.diag()))
	}
	return m.ps
}

func (m message) teamParticlesPayload(c *Comm) (int, []phys.Particle) {
	if m.kind != payloadTeamParticles {
		panic(fmt.Sprintf("comm: expected a framed particle payload, got %v (tag %d, %s)", m.kind, m.tag, c.diag()))
	}
	return int(m.hdr), m.ps
}

func (m message) f64sPayload(c *Comm) []float64 {
	if m.kind != payloadF64s {
		panic(fmt.Sprintf("comm: expected a float64 payload, got %v (tag %d, %s)", m.kind, m.tag, c.diag()))
	}
	return m.f64s
}

// Sendrecv sends data to rank `to` and receives a payload from rank
// `from` under the same tag, without deadlocking when all ranks of a ring
// call it simultaneously. This is the primitive behind the skew and shift
// steps of the communication-avoiding algorithms.
func (c *Comm) Sendrecv(to int, data []byte, from, tag int) []byte {
	if to == c.rank && from == c.rank {
		// Degenerate single-rank ring: the shift is the identity.
		return data
	}
	return c.sendrecvMsg(to, tag, bytesMsg(data), from).bytesPayload(c)
}

// tailPending reaps a completed overflow Isend to dst and reports
// whether one is still in flight (in which case inline mailbox delivery
// would reorder the src→dst stream).
func (c *Comm) tailPending(src, dst int) bool {
	prev := c.rt.sendTail[src][dst]
	if prev == nil {
		return false
	}
	select {
	case <-prev.sent:
		c.rt.sendTail[src][dst] = nil
		return false
	default:
		return true
	}
}

// sendrecvMsg is the shared exchange under Sendrecv and its typed
// variants. The send and the receive are offered simultaneously in one
// select, so a ring of ranks exchanging at once cannot deadlock on any
// mailbox capacity — including zero. (The historical blocking
// send-then-recv only avoided deadlock because the default mailboxes
// buffer eight messages; a shrunken mailbox or a saturated transport
// breaks that assumption, which TestSendrecvRingUnbuffered pins.) The
// select carries no goroutine or Request, keeping the steady-state
// shift loops allocation-free.
//
// Progress argument for the recv-first arm: once this rank's receive
// completes, its upstream neighbor's send has completed, so by
// induction around any exchange cycle every blocked send eventually
// finds its receiver — each rank keeps its receive offered until it
// completes.
func (c *Comm) sendrecvMsg(to, tag int, m message, from int) message {
	c.checkPeer(to)
	c.checkPeer(from)
	if to == c.rank {
		panic(fmt.Sprintf("comm: self-send (use local copies instead) (%s)", c.diag()))
	}
	if from == c.rank {
		panic(fmt.Sprintf("comm: self-receive (%s)", c.diag()))
	}
	src, dst := c.group[c.rank], c.group[to]
	if c.rt.remote(dst) || c.tailPending(src, dst) {
		// A remote send cannot join a mailbox cycle — the link's writer
		// goroutine drains the queue and the remote reader never blocks
		// on delivery — and a pending overflow Isend forbids inline
		// delivery; both delegate to the nonblocking path.
		send := c.isendMsg(to, tag, m)
		out := c.recvMsg(from, tag)
		send.waitSent()
		return out
	}
	box := c.rt.boxes[dst][src]
	c.cm.countSend(int(c.stats.Phase()), src, dst, m.wire, len(box))
	m.comm = c.id
	m.tag = tag
	m.seq = c.rt.nextSeq(src, dst)
	c.stats.CountMessage(m.wire)
	c.tr.Send(dst, tag, m.wire, m.seq)
	rbox := c.rt.boxes[src][c.group[from]]
	t0 := c.tr.Now()
	select {
	case box <- m:
		select {
		case got := <-rbox:
			c.finishRecv(got, from, tag, t0)
			return got
		case <-c.rt.abort:
			panic(errAborted{})
		}
	case got := <-rbox:
		c.finishRecv(got, from, tag, t0)
		select {
		case box <- m:
		case <-c.rt.abort:
			panic(errAborted{})
		}
		return got
	case <-c.rt.abort:
		panic(errAborted{})
	}
}

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a reduction to rank 0 followed by a broadcast.
func (c *Comm) Barrier() {
	const tag = tagBarrier
	if c.Size() == 1 {
		return
	}
	t0 := c.tr.Now()
	// Binomial fan-in then fan-out, independent of the collective
	// algorithm option: a barrier carries no payload worth modelling.
	c.fanIn(0, tag, nil)
	c.fanOut(0, tag, nil)
	c.tr.Collective(obs.KindBarrier, t0, 0)
}

// Split partitions the communicator by color, ordering ranks of each new
// communicator by key (ties broken by parent rank), and returns the
// caller's handle on its new communicator. All ranks of the parent must
// call Split with consistent arguments; color/key exchange happens
// through an allgather on the parent.
func (c *Comm) Split(color, key int) *Comm {
	type ck struct{ color, key, rank int }
	mine := encodeInts([]int{color, key, c.rank})
	all := c.Allgather(mine)
	var members []ck
	for r, b := range all {
		v := decodeInts(b)
		if v[0] == color {
			members = append(members, ck{v[0], v[1], r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m.rank]
		if m.rank == c.rank {
			newRank = i
		}
	}
	return &Comm{
		rt:    c.rt,
		id:    deriveID(c.id, color),
		rank:  newRank,
		group: group,
		opts:  c.opts,
		stats: c.stats,
		tr:    c.tr,
		cm:    c.cm,
	}
}

// Sub returns the caller's handle on a communicator containing exactly
// the given parent ranks, in the given order. Every listed rank must call
// Sub with the same list; callers not in the list must not call it. No
// communication is needed because the membership is explicit.
func (c *Comm) Sub(parentRanks []int) *Comm {
	group := make([]int, len(parentRanks))
	newRank := -1
	h := c.id
	for i, pr := range parentRanks {
		c.checkPeer(pr)
		group[i] = c.group[pr]
		if pr == c.rank {
			newRank = i
		}
		h = deriveID(h, pr)
	}
	if newRank == -1 {
		panic("comm: Sub called by rank outside the sub-group")
	}
	return &Comm{rt: c.rt, id: h, rank: newRank, group: group, opts: c.opts, stats: c.stats, tr: c.tr, cm: c.cm}
}

// Tags used by the built-in collectives; user code must use tags >= 0.
const (
	tagBarrier = -1 - iota
	tagBcast
	tagReduce
	tagGather
	tagAllgather
)
