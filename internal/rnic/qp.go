package rnic

// This file implements queue pairs and the data-path verbs. All operations
// are synchronous from the calling process's point of view — the process
// blocks until the completion is reaped — matching the paper's measurement
// methodology ("we always wait for an RDMA operation's completion before
// starting the next operation", Sec. 2.2).

import (
	"rfp/internal/sim"
	"rfp/internal/trace"
)

// message is a two-sided Send in flight.
type message struct {
	data []byte
}

// QP is one endpoint of a reliable connection between two NICs. One-sided
// Read/Write operate on RemoteMR handles; two-sided Send/Recv exchange
// discrete messages. A QP endpoint must only be driven by processes running
// on its local machine.
type QP struct {
	local   *NIC
	remote  *NIC
	peer    *QP
	recvQ   *sim.Queue[message]
	eng     *qpEngine // run-to-completion initiator engine (lazily created)
	syncCQ  *CQ       // private CQ of the blocking verbs (lazily created)
	errored bool      // QP transitioned to error state (faults.go)
}

// Connect establishes a reliable connection between NICs a and b and
// returns the two endpoints (a's first).
func Connect(a, b *NIC) (*QP, *QP) {
	if a.env != b.env {
		panic("rnic: cannot connect NICs from different environments")
	}
	qa := &QP{local: a, remote: b, recvQ: sim.NewQueueOn[message](a.shard)}
	qb := &QP{local: b, remote: a, recvQ: sim.NewQueueOn[message](b.shard)}
	qa.peer, qb.peer = qb, qa
	a.qps++
	b.qps++
	return qa, qb
}

// Local returns the NIC this endpoint belongs to.
func (q *QP) Local() *NIC { return q.local }

// Remote returns the NIC at the other end of the connection.
func (q *QP) Remote() *NIC { return q.remote }

// syncOp is the synchronous form of a one-sided verb: post, then wait for
// the completion before returning (Sec. 2.2) — Post + CQ.Wait on a private
// CQ. Validation errors return before any time is charged; the flight's
// completion already includes the return propagation, so the reap costs
// only the poll.
func (q *QP) syncOp(p *sim.Proc, op WROp, remote RemoteMR, roff int, local []byte) error {
	if err := q.gate(); err != nil {
		return err
	}
	if err := q.checkTarget(remote, roff, len(local)); err != nil {
		return err
	}
	q.ensureEngine()
	if q.syncCQ == nil {
		q.syncCQ = NewCQ(q.local)
	}
	n := q.local
	p.Sleep(n.cpu(n.prof.PostNs) + n.jitter(p))
	q.eng.enqueue(asyncWR{wr: WR{Op: op, Remote: remote, Roff: roff, Local: local}, cq: q.syncCQ})
	e := q.syncCQ.Wait(p)
	return e.Err
}

// Write performs a one-sided RDMA Write of local into the remote region at
// offset roff, blocking until completion. The remote CPU is not involved:
// only the responder NIC's in-bound engine and RX pipe are charged.
func (q *QP) Write(p *sim.Proc, remote RemoteMR, roff int, local []byte) error {
	return q.syncOp(p, WRWrite, remote, roff, local)
}

// Read performs a one-sided RDMA Read of len(local) bytes from the remote
// region at offset roff into local, blocking until completion. The response
// payload occupies the responder's TX pipe; the responder CPU is bypassed.
func (q *QP) Read(p *sim.Proc, remote RemoteMR, roff int, local []byte) error {
	return q.syncOp(p, WRRead, remote, roff, local)
}

// Send transmits data as a two-sided message, blocking until it is handed
// to the wire. Matching the paper's observation, two-sided operations show
// no in/out-bound asymmetry: the receive side pays a symmetric engine cost
// when the message is consumed by Recv.
func (q *QP) Send(p *sim.Proc, data []byte) error {
	if err := q.gate(); err != nil {
		return err
	}
	n := q.local
	start := p.Now()
	p.Sleep(n.cpu(n.prof.PostNs) + n.jitter(p))
	n.outEngine.Use(p, sim.Duration(n.prof.OutEngineTimeNs(n.issuers, false)))
	n.tx.Use(p, sim.Duration(n.prof.WireNs(len(data))))
	n.Stats.OutBytes += uint64(len(data))
	n.Stats.Sends++
	msg := message{data: append([]byte(nil), data...)}
	// Delivery happens after propagation; the sender does not wait for the
	// receiver to post a matching Recv (buffered SRQ semantics). SendAfter
	// is a plain After on a single-lane environment and a window-barrier
	// hop when the peer lives on another lane.
	peer := q.peer
	n.shard.SendAfter(peer.local.shard, sim.Duration(n.prof.PropagationNs), func() {
		peer.recvQ.Put(msg)
	})
	p.Sleep(n.cpu(n.prof.PollNs))
	n.tracer.Record(trace.Event{Start: start, End: p.Now(), Kind: trace.Send,
		Src: n.name, Dst: q.remote.name, Bytes: len(data)})
	return nil
}

// Recv blocks until a message arrives on this endpoint and returns its
// payload. The receiver pays a symmetric engine cost plus CPU to consume
// the receive completion — this is why two-sided designs burn server CPU
// and NIC issue capacity on replies.
func (q *QP) Recv(p *sim.Proc) []byte {
	msg := q.recvQ.Get(p)
	n := q.local
	n.rx.Use(p, sim.Duration(n.prof.WireNs(len(msg.data))))
	// Two-sided receive consumes a receive WQE and generates a CQE: engine
	// cost comparable to the send side (no asymmetry).
	n.outEngine.Use(p, sim.Duration(n.prof.OutEngineTimeNs(n.issuers, false)))
	p.Sleep(n.cpu(n.prof.PollNs))
	n.Stats.InBytes += uint64(len(msg.data))
	n.Stats.Recvs++
	return msg.data
}

// TryRecv returns a pending message without blocking.
func (q *QP) TryRecv(p *sim.Proc) ([]byte, bool) {
	msg, ok := q.recvQ.TryGet()
	if !ok {
		return nil, false
	}
	n := q.local
	n.rx.Use(p, sim.Duration(n.prof.WireNs(len(msg.data))))
	n.outEngine.Use(p, sim.Duration(n.prof.OutEngineTimeNs(n.issuers, false)))
	p.Sleep(n.cpu(n.prof.PollNs))
	n.Stats.InBytes += uint64(len(msg.data))
	n.Stats.Recvs++
	return msg.data, true
}
