// Package comm is a hand-rolled message-passing substrate that stands in
// for MPI (Go has no mature MPI bindings). A Runtime executes p ranks as
// goroutines in one SPMD function; ranks exchange byte-slice messages
// through per-pair channels and synchronize with collectives —
// broadcast, reduce, allreduce, gather, allgather, barrier and the
// sendrecv shifts the communication-avoiding algorithms are built from.
//
// Collectives are implemented from scratch with selectable algorithms
// (binomial tree, flat, ring), mirroring the "tree" versus "no-tree"
// collectives the paper compares on Intrepid. Every point-to-point
// message is counted against the sender's active trace phase, so the
// critical-path message and word counts of the paper's analysis are
// measured exactly, not estimated.
package comm

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/trace"
)

// payloadKind tags the representation a message's payload travels in.
// Byte payloads are the encoded wire format; the typed kinds move Go
// slices by reference (zero copy) and are accounted at the byte size the
// wire format would have had, so both transports measure identical S/W.
type payloadKind uint8

const (
	payloadBytes payloadKind = iota
	payloadParticles
	payloadTeamParticles // particles prefixed with a 4-byte source-team frame
	payloadF64s
)

func (k payloadKind) String() string {
	switch k {
	case payloadBytes:
		return "bytes"
	case payloadParticles:
		return "particles"
	case payloadTeamParticles:
		return "team-particles"
	case payloadF64s:
		return "f64s"
	default:
		return fmt.Sprintf("payloadKind(%d)", int(k))
	}
}

// message is what travels between ranks. The comm id separates traffic of
// different communicators that share the underlying mailboxes. Exactly
// one payload representation is populated, named by kind; wire is the
// byte size charged to the trace phase and obs instruments — for byte
// payloads len(data), for typed payloads the size the encoded wire
// format would occupy.
type message struct {
	comm uint64
	tag  int
	kind payloadKind
	wire int
	// seq is the 1-based per-(src,dst) world-rank sequence number stamped
	// at send time; the per-pair FIFO mailboxes deliver it in order, so
	// the receiving endpoint observes the same number. The timeline's
	// flow events bind send to recv through it. 0 never occurs on a
	// delivered message.
	seq  uint64
	data []byte
	ps   []phys.Particle
	f64s []float64
	hdr  uint32 // source-team frame of payloadTeamParticles
}

// Payload constructors: each fixes the kind/wire pairing so accounting
// cannot drift from the payload representation.

func bytesMsg(data []byte) message {
	return message{kind: payloadBytes, wire: len(data), data: data}
}

func particlesMsg(ps []phys.Particle) message {
	return message{kind: payloadParticles, wire: phys.WireBytes(len(ps)), ps: ps}
}

func teamParticlesMsg(team int, ps []phys.Particle) message {
	return message{kind: payloadTeamParticles, wire: frameBytes + phys.WireBytes(len(ps)), ps: ps, hdr: uint32(team)}
}

func f64sMsg(vals []float64) message {
	return message{kind: payloadF64s, wire: 8 * len(vals), f64s: vals}
}

// frameBytes is the wire size of the source-team frame a
// payloadTeamParticles message carries: a 4-byte team header ahead of
// the encoded particles.
const frameBytes = 4

// mailboxCap is the default per-(src,dst) channel buffer. The algorithms
// in this repository keep at most a few outstanding messages per pair;
// the abort select below prevents a hard deadlock if that assumption is
// violated. Options.MailboxCap overrides it — tests use tiny (even zero)
// capacities to prove point-to-point patterns correct on any
// bounded-capacity transport.
const mailboxCap = 8

// Runtime owns the mailboxes and failure plumbing for one SPMD execution.
type Runtime struct {
	size  int
	boxes [][]chan message // boxes[dst][src]
	abort chan struct{}    // closed on first rank failure
	once  sync.Once
	mu    sync.Mutex
	err   error
	stats []*trace.Stats
	// sendTail[src][dst] is the most recent overflow Isend between the
	// pair, used to chain deferred deliveries so message order is
	// preserved even past mailbox capacity. Accessed only by src's
	// goroutine.
	sendTail [][]*Request
	// seqs[src][dst] is the per-pair message sequence counter backing
	// message.seq. Like sendTail, each row is written only by src's
	// goroutine, so plain (non-atomic) increments are race-free.
	seqs [][]uint64

	// Multi-process state (nil/zero under plain Run). lo/hi bound the
	// world ranks hosted by this process; inTail chains deferred inbound
	// deliveries per (src,dst) like sendTail chains outbound ones; shadow
	// counts traffic when the local process is unobserved so the merged
	// matrix stays globally true; deposits collects the final state
	// published via Comm.Deposit.
	proc     *Proc
	lo, hi   int
	inTail   [][]chan struct{}
	shadow   *obs.CommMatrix
	deposits map[int][]phys.Particle
}

// NewRuntime prepares mailboxes for size ranks.
func NewRuntime(size int) *Runtime { return newRuntime(size, 0) }

func newRuntime(size, boxCap int) *Runtime {
	if size <= 0 {
		panic(fmt.Sprintf("comm: non-positive world size %d", size))
	}
	if boxCap == 0 {
		boxCap = mailboxCap
	} else if boxCap < 0 {
		boxCap = 0 // explicit request for unbuffered mailboxes
	}
	rt := &Runtime{
		size:  size,
		boxes: make([][]chan message, size),
		abort: make(chan struct{}),
		stats: make([]*trace.Stats, size),
	}
	rt.lo, rt.hi = 0, size
	for d := range rt.boxes {
		rt.boxes[d] = make([]chan message, size)
		for s := range rt.boxes[d] {
			rt.boxes[d][s] = make(chan message, boxCap)
		}
		rt.stats[d] = trace.NewStats()
	}
	rt.sendTail = make([][]*Request, size)
	rt.seqs = make([][]uint64, size)
	for s := range rt.sendTail {
		rt.sendTail[s] = make([]*Request, size)
		rt.seqs[s] = make([]uint64, size)
	}
	return rt
}

// nextSeq advances and returns the src→dst sequence counter. Must be
// called by src's goroutine (it is, from sendMsg/isendMsg).
func (rt *Runtime) nextSeq(src, dst int) uint64 {
	rt.seqs[src][dst]++
	return rt.seqs[src][dst]
}

// Stats returns the per-rank accounting records. Call after Run returns.
func (rt *Runtime) Stats() []*trace.Stats { return rt.stats }

// Report aggregates the per-rank stats into a critical-path report.
func (rt *Runtime) Report() *trace.Report { return trace.Aggregate(rt.stats) }

// fail records the first error, releases every blocked local rank, and
// severs the mesh so remote peers fail fast instead of hanging.
func (rt *Runtime) fail(err error) {
	rt.failLocal(err)
	if rt.proc != nil {
		rt.proc.mesh.Abort(err)
	}
}

// failLocal is fail without the mesh propagation — the form the mesh's
// own abort callback uses, so failure notifications arriving from a
// remote process do not recurse back into the mesh.
func (rt *Runtime) failLocal(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.mu.Unlock()
	rt.once.Do(func() { close(rt.abort) })
}

// errAborted is the panic payload used to unwind ranks blocked on
// communication when a peer has failed.
type errAborted struct{}

// Run executes fn on every rank concurrently and waits for all ranks to
// finish. The first error returned (or panic raised) by any rank aborts
// the whole execution: ranks blocked in communication unwind cleanly and
// Run returns that first error.
//
// When opts.Observe carries a timeline and/or metrics registry, every
// rank's communication is additionally recorded there: phase spans and
// per-message events on the timeline, message-size and mailbox-depth
// distributions in the registry.
func Run(size int, opts Options, fn func(*Comm) error) (*trace.Report, error) {
	rep, _, err := RunProc(size, opts, nil, fn)
	return rep, err
}

// RunProc is Run spanning OS processes: with a non-nil proc, this
// process executes only its share of the world's ranks, remote traffic
// travels the socket mesh, and at the end of the run every process
// receives the same merged report and Deposit-published final state.
// With a nil proc it is exactly Run (plus the locally collected
// deposits). RunProc must be called collectively — every process of the
// mesh, same size and equivalent fn.
func RunProc(size int, opts Options, proc *Proc, fn func(*Comm) error) (*trace.Report, map[int][]phys.Particle, error) {
	rt := newRuntime(size, opts.MailboxCap)
	if proc != nil {
		if err := rt.bindProc(proc); err != nil {
			return nil, nil, err
		}
	}
	var cm *commMetrics
	if o := opts.Observe; o != nil {
		o.Timeline.SetPhaseNamesIfUnset(trace.PhaseNames())
		cm = newCommMetrics(o.Metrics, o.EnsureMatrix(len(trace.PhaseNames()), size))
	} else if proc != nil {
		// Unobserved distributed processes still count traffic into a
		// shadow matrix, so the observed leader's merged matrix covers
		// the whole world.
		rt.shadow = obs.NewCommMatrix(len(trace.PhaseNames()), size)
		cm = newCommMetrics(nil, rt.shadow)
	}
	var wg sync.WaitGroup
	wg.Add(rt.hi - rt.lo)
	for r := rt.lo; r < rt.hi; r++ {
		var tr *obs.Tracer
		if o := opts.Observe; o != nil {
			tr = o.Timeline.Rank(r)
		}
		world := &Comm{
			rt:    rt,
			id:    worldID,
			rank:  r,
			group: identity(size),
			opts:  opts,
			stats: rt.stats[r],
			tr:    tr,
			cm:    cm,
		}
		go func(c *Comm) {
			defer wg.Done()
			defer c.tr.Close()
			defer func() {
				switch v := recover().(type) {
				case nil:
				case errAborted:
					// Peer failed first; nothing to report.
				default:
					rt.fail(fmt.Errorf("comm: rank %d panicked: %v\n%s", c.rank, v, debug.Stack()))
				}
			}()
			c.stats.SetTracer(c.tr)
			if err := fn(c); err != nil {
				rt.fail(fmt.Errorf("comm: rank %d: %w", c.rank, err))
			}
		}(world)
	}
	wg.Wait()
	if proc != nil {
		// Detach before the result exchange, not after: once every local
		// rank has returned, all of this run's inbound traffic has been
		// consumed (each rank completed its deterministic receive
		// schedule), so any frame arriving from here on belongs to the
		// peer's NEXT run — it must buffer in the mesh for the next
		// Attach, not be swallowed by this run's dead mailboxes. A peer
		// can race ahead like that because the leader finishes the result
		// exchange first and may re-enter RunProc immediately.
		rt.unbindProc()
		return rt.joinDistributed(opts)
	}
	rep := rt.Report()
	if o := opts.Observe; o != nil {
		// Stamp ring-wraparound losses on the report and as a gauge, so a
		// truncated timeline is never silently misread as a complete run.
		dropped := o.Timeline.Dropped()
		rep.TimelineDropped = dropped
		o.Metrics.Gauge("timeline.dropped").Set(dropped)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rep, rt.deposits, rt.err
}

// commMetrics holds the substrate's pre-resolved registry instruments,
// shared by all ranks (updates are atomic). Resolving once at Run start
// keeps map lookups out of the per-message path. A nil *commMetrics
// disables all of it at the cost of one nil check per site.
type commMetrics struct {
	sentMsgs  *obs.Counter
	sentBytes *obs.Counter
	recvMsgs  *obs.Counter
	recvBytes *obs.Counter
	msgBytes  *obs.Histogram // payload size distribution of sends
	mailbox   *obs.Histogram // destination mailbox depth seen by sends
	matrix    *obs.CommMatrix
}

func newCommMetrics(reg *obs.Registry, matrix *obs.CommMatrix) *commMetrics {
	if reg == nil && matrix == nil {
		return nil
	}
	return &commMetrics{
		sentMsgs:  reg.Counter("comm.sent.msgs"),
		sentBytes: reg.Counter("comm.sent.bytes"),
		recvMsgs:  reg.Counter("comm.recv.msgs"),
		recvBytes: reg.Counter("comm.recv.bytes"),
		msgBytes:  reg.Histogram("comm.msg.bytes"),
		mailbox:   reg.Histogram("comm.mailbox.depth"),
		matrix:    matrix,
	}
}

// countSend records one src→dst world-rank message in the registry
// instruments and the communication matrix, under the sender's phase.
func (m *commMetrics) countSend(phase, src, dst, bytes, boxDepth int) {
	if m == nil {
		return
	}
	m.sentMsgs.Inc()
	m.sentBytes.Add(int64(bytes))
	m.msgBytes.Observe(int64(bytes))
	m.mailbox.Observe(int64(boxDepth))
	m.matrix.CountSend(phase, src, dst, bytes)
}

// countRecv records one received src→dst world-rank message in the
// registry instruments and the matrix, under the receiver's phase
// (which may differ from the phase the send was stamped under).
func (m *commMetrics) countRecv(phase, src, dst, bytes int) {
	if m == nil {
		return
	}
	m.recvMsgs.Inc()
	m.recvBytes.Add(int64(bytes))
	m.matrix.CountRecv(phase, src, dst, bytes)
}

func identity(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// worldID is the communicator id of the world communicator.
const worldID uint64 = 0x9e3779b97f4a7c15

// deriveID deterministically derives a sub-communicator id from a parent
// id and a split color, so that all members of a split agree on the new
// id without extra communication.
func deriveID(parent uint64, color int) uint64 {
	z := parent ^ (uint64(color+1) * 0xbf58476d1ce4e5b9)
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	z = (z ^ (z >> 27)) * 0x9e3779b97f4a7c15
	return z ^ (z >> 31)
}
