// Package mpisim is the distributed-memory substrate standing in for MPI on
// Stampede: ranks are goroutines exchanging real data through mailboxes,
// while per-rank *virtual clocks* advance by calibrated compute costs
// (perfmodel.Rates) and modeled network costs (perfmodel.Network). The
// numerics executed are the real distributed Newton-Krylov-Schwarz
// algorithm — halo exchanges, rank-local ILU, Allreduce-backed inner
// products — so iteration counts, Schwarz convergence degradation, and
// message volumes are genuine; only the time axis is modeled. This is the
// substitution documented in DESIGN.md for the paper's 256-node runs.
package mpisim

import (
	"fmt"
	"sync"

	"fun3d/internal/perfmodel"
)

// envelope is one in-flight message.
type envelope struct {
	from, tag int
	data      []float64
	sendClock float64
}

// mailbox is an unbounded, selective-receive message queue (senders never
// block, so arbitrary exchange orders cannot deadlock).
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []envelope
	aborted bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(e envelope) {
	m.mu.Lock()
	if m.aborted {
		// Late send into a dead communicator generation: drop it so the
		// payload cannot be consumed (or retained) after an abort.
		m.mu.Unlock()
		return
	}
	m.queue = append(m.queue, e)
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) get(from, tag int) envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.aborted {
			panic(errAborted)
		}
		for i, e := range m.queue {
			if e.from == from && e.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return e
			}
		}
		m.cond.Wait()
	}
}

func (m *mailbox) abort() {
	m.mu.Lock()
	m.aborted = true
	// Release queued payloads: a failed large-mesh run must not pin halo
	// buffers for the lifetime of the dead communicator, and no rank may
	// consume a message from a dead generation (get re-checks aborted
	// before every scan, so clearing here is observationally equivalent to
	// the messages never arriving).
	m.queue = nil
	m.mu.Unlock()
	m.cond.Broadcast()
}

// errAborted is the panic payload used to unwind ranks blocked on a dead
// communicator; workers recover it into an error.
var errAborted = fmt.Errorf("mpisim: communicator aborted (a peer rank failed)")

// Comm is a communicator over a fixed number of ranks.
type Comm struct {
	size  int
	net   perfmodel.Network
	boxes []*mailbox
	red   *reducer
}

// NewComm creates a communicator of the given size over the network model.
func NewComm(size int, net perfmodel.Network) *Comm {
	c := &Comm{size: size, net: net, boxes: make([]*mailbox, size)}
	for i := range c.boxes {
		c.boxes[i] = newMailbox()
	}
	c.red = newReducer(size)
	return c
}

// Size returns the rank count.
func (c *Comm) Size() int { return c.size }

// Abort unblocks every rank waiting on a receive or collective by making
// those calls panic with errAborted (workers recover it into an error).
// Call when one rank fails so the remaining ranks cannot deadlock — the
// behaviour MPI implementations provide with MPI_Abort.
func (c *Comm) Abort() {
	for _, b := range c.boxes {
		b.abort()
	}
	c.red.abort()
}

// Rank is one participant's handle. Each rank goroutine owns exactly one.
type Rank struct {
	comm *Comm
	id   int

	// Virtual time accounting (seconds).
	Clock         float64
	ComputeTime   float64
	PtPTime       float64
	AllreduceTime float64

	// Traffic statistics.
	MsgsSent     int
	BytesSent    int
	Allreduces   int
	BytesReduced int // Allreduce payload bytes contributed by this rank
	// Collective structure (from perfmodel.CollectiveCost): message stages
	// executed and switch hops traversed by this rank's collectives —
	// deterministic functions of (algo, topology, placement, size), summed
	// over calls.
	AllreduceStages int
	AllreduceHops   int
	// Point-to-point route books (kept by the receiver): switch hops
	// traversed by received messages, and the received bytes that crossed
	// a node or a pod/group boundary — deterministic functions of
	// (decomposition, placement, topology), the quantities the placement
	// experiment drives down.
	PtPHops           int
	PtPCrossNodeBytes int
	PtPCrossPodBytes  int
}

// NewRank returns the handle for rank id. Call exactly once per id.
func (c *Comm) NewRank(id int) *Rank {
	if id < 0 || id >= c.size {
		panic(fmt.Sprintf("mpisim: rank %d out of range [0,%d)", id, c.size))
	}
	return &Rank{comm: c, id: id}
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.comm.size }

// Compute advances the rank's virtual clock by a modeled compute duration.
func (r *Rank) Compute(seconds float64) {
	r.Clock += seconds
	r.ComputeTime += seconds
}

// Send posts data to rank `to` with the given tag. The data is copied;
// sends never block.
func (r *Rank) Send(to, tag int, data []float64) {
	cp := append([]float64(nil), data...)
	r.comm.boxes[to].put(envelope{from: r.id, tag: tag, data: cp, sendClock: r.Clock})
	r.MsgsSent++
	r.BytesSent += 8 * len(data)
}

// Isend is the nonblocking send. Sends in this simulator never block (the
// mailbox is unbounded), so Isend is Send under MPI's nonblocking name; it
// exists so overlapped halo code reads like the MPI it models.
func (r *Rank) Isend(to, tag int, data []float64) {
	r.Send(to, tag, data)
}

// Request is a posted nonblocking receive (the MPI_Irecv handle). Complete
// it with Rank.Wait.
type Request struct {
	from, tag int
	done      bool
	data      []float64
}

// Irecv posts a nonblocking receive for a message from `from` with `tag`.
// Posting costs no virtual time; the message transit happens "in the
// background" while the rank keeps computing. Complete with Wait.
func (r *Rank) Irecv(from, tag int) *Request {
	return &Request{from: from, tag: tag}
}

// Wait completes a posted receive and returns its payload. The virtual
// clock advances only by the *uncovered* remainder of the transfer: the
// message arrives at sendClock + network time, and any compute the rank did
// between Irecv and Wait counts against that — if the clock already passed
// the arrival time, Wait is free. The residual waiting gap is attributed to
// point-to-point communication. Wait is idempotent.
func (r *Rank) Wait(req *Request) []float64 {
	if req.done {
		return req.data
	}
	e := r.comm.boxes[r.id].get(req.from, req.tag)
	bytes := 8 * len(e.data)
	rt := r.comm.net.RouteOf(req.from, r.id, r.comm.size)
	ptp := r.comm.net.RouteCost(rt, bytes)
	r.PtPHops += rt.Hops
	if rt.CrossNode {
		r.PtPCrossNodeBytes += bytes
		if rt.CrossPod {
			r.PtPCrossPodBytes += bytes
		}
	}
	arrive := e.sendClock + ptp
	if arrive > r.Clock {
		r.PtPTime += arrive - r.Clock
		r.Clock = arrive
	}
	req.done = true
	req.data = e.data
	return e.data
}

// Recv blocks until a message from `from` with `tag` arrives and returns
// its payload. The virtual clock advances to the modeled arrival time
// (sender's send clock + network time), never backwards; the waiting gap is
// attributed to point-to-point communication. Equivalent to Wait(Irecv(...)).
func (r *Rank) Recv(from, tag int) []float64 {
	return r.Wait(r.Irecv(from, tag))
}

// reducer implements a deterministic, reusable Allreduce rendezvous. Two
// generations can be in flight at once (stragglers of generation g reading
// their result while early ranks have entered g+1), so completed results
// live in two parity slots. Generation g+2 cannot complete before every
// straggler of g has re-entered, which bounds the overlap at two.
type reducer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	gen     int // generation currently accepting arrivals
	count   int
	curMax  float64     // max clock among current-generation arrivals
	parts   [][]float64 // current-generation contributions
	aborted bool
	slots   [2]struct { // completed generations, indexed by gen parity
		result []float64
		maxClk float64
		cost   perfmodel.CollectiveCost
	}
}

func (r *reducer) abort() {
	r.mu.Lock()
	r.aborted = true
	// Drop the pending contributions of the in-flight (incomplete)
	// generation so a failed large-mesh run releases reduction payload
	// memory — that generation can never complete, as no new rank may
	// enter an aborted reducer. Completed-generation slots are kept:
	// stragglers of a collective that DID complete still collect its
	// result (see Allreduce), which is what makes every rank observe the
	// same last completed step regardless of abort timing.
	for i := range r.parts {
		r.parts[i] = nil
	}
	r.count = 0
	r.curMax = 0
	r.mu.Unlock()
	r.cond.Broadcast()
}

func newReducer(size int) *reducer {
	r := &reducer{size: size, parts: make([][]float64, size)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Allreduce sums vals element-wise across all ranks. Every rank must call
// with the same length. The reduction order is rank order, so the result is
// bit-identical across runs. Clocks synchronize to the slowest participant
// plus the modeled collective cost — the term that dominates the paper's
// 256-node runs.
func (r *Rank) Allreduce(vals []float64) []float64 {
	red := r.comm.red
	red.mu.Lock()
	if red.aborted {
		red.mu.Unlock()
		panic(errAborted)
	}
	myGen := red.gen
	red.parts[r.id] = append([]float64(nil), vals...)
	if r.Clock > red.curMax {
		red.curMax = r.Clock
	}
	red.count++
	if red.count == red.size {
		// Last arriver reduces deterministically in rank order.
		out := make([]float64, len(vals))
		for rank := 0; rank < red.size; rank++ {
			p := red.parts[rank]
			for i := range out {
				out[i] += p[i]
			}
			red.parts[rank] = nil
		}
		slot := &red.slots[myGen%2]
		slot.result = out
		slot.maxClk = red.curMax
		// The collective's cost is a pure function of (size, bytes, model);
		// the last arriver computes it once per generation and every
		// participant applies the same breakdown.
		slot.cost = r.comm.net.AllreduceBreakdown(r.comm.size, 8*len(vals))
		red.curMax = 0
		red.count = 0
		red.gen++
		red.cond.Broadcast()
	} else {
		for red.gen == myGen && !red.aborted {
			red.cond.Wait()
		}
		if red.gen == myGen {
			// Aborted before this generation completed: the collective
			// never happened for anyone.
			red.mu.Unlock()
			panic(errAborted)
		}
		// Generation completed — possibly concurrently with an abort. The
		// collective happened, so take its result: every participant of a
		// completed collective must observe it, so a failure elsewhere
		// cannot split ranks across a step boundary.
	}
	slot := &red.slots[myGen%2]
	result := slot.result
	maxClk := slot.maxClk
	cost := slot.cost
	red.mu.Unlock()

	// All ranks leave at the synchronized time plus the collective cost.
	done := maxClk + cost.Seconds
	if done > r.Clock {
		r.AllreduceTime += done - r.Clock
		r.Clock = done
	}
	r.Allreduces++
	r.BytesReduced += 8 * len(vals)
	r.AllreduceStages += cost.Stages
	r.AllreduceHops += cost.Hops
	out := append([]float64(nil), result...)
	return out
}

// Barrier synchronizes all ranks (an empty Allreduce).
func (r *Rank) Barrier() {
	r.Allreduce(nil)
}

// ReduceQueue coalesces reduction contributions into one Allreduce: callers
// Push partial sums as they are produced and Flush issues a single
// collective over the packed payload. Every rank must Push the same values
// in the same order between Flushes — the same contract Allreduce itself
// has, extended over a batch. The flat-vs-tree cost model (and the paper's
// Fig 10 latency wall) applies per collective, so packing k reductions into
// one Flush pays one latency term instead of k — the mechanism behind the
// pipelined GMRES variant's single collective per iteration.
type ReduceQueue struct {
	r   *Rank
	buf []float64
}

// NewReduceQueue returns an empty coalescing queue bound to this rank.
func (r *Rank) NewReduceQueue() *ReduceQueue {
	return &ReduceQueue{r: r}
}

// Push appends local partial values to the pending payload and returns the
// offset at which they will appear in Flush's result.
func (q *ReduceQueue) Push(vals ...float64) int {
	off := len(q.buf)
	q.buf = append(q.buf, vals...)
	return off
}

// Pending returns the number of queued values.
func (q *ReduceQueue) Pending() int { return len(q.buf) }

// Flush reduces the pending payload in one Allreduce and resets the queue.
// A Flush with nothing pending issues no collective and returns nil.
func (q *ReduceQueue) Flush() []float64 {
	if len(q.buf) == 0 {
		return nil
	}
	out := q.r.Allreduce(q.buf)
	q.buf = q.buf[:0]
	return out
}
