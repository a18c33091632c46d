package rnic

// Unreliable transports (extension beyond the paper's main line, covering
// its Sec. 5 discussion of queue-pair types). RFP requires Reliable
// Connection (RC) — the only type supporting both one-sided Read and Write.
// Unreliable Connection (UC) supports Write but not Read; Unreliable
// Datagram (UD) supports neither, only two-sided sends. Both buy lower
// per-operation engine cost at the price of delivery guarantees: messages
// may be "corrupted and silently dropped", which is how HERD/FaSST-style
// designs beat RC on raw IOPS while pushing loss handling onto the
// application.

import (
	"errors"

	"rfp/internal/sim"
	"rfp/internal/trace"
)

// ErrOpNotSupported reports a verb the queue pair's transport lacks.
var ErrOpNotSupported = errors.New("rnic: operation not supported by this transport type")

// UCQP is one endpoint of an Unreliable Connection: one-sided Writes only,
// with silent loss possible.
type UCQP struct {
	local  *NIC
	remote *NIC
}

// ConnectUC establishes an unreliable connection between two NICs.
func ConnectUC(a, b *NIC) (*UCQP, *UCQP) {
	if a.env != b.env {
		panic("rnic: cannot connect NICs from different environments")
	}
	return &UCQP{local: a, remote: b}, &UCQP{local: b, remote: a}
}

// Read always fails: UC does not support RDMA Read, which is exactly why a
// remote-fetching design cannot run over it (paper Sec. 5).
func (q *UCQP) Read(p *sim.Proc, remote RemoteMR, roff int, local []byte) error {
	return ErrOpNotSupported
}

// Write performs a one-sided RDMA Write with UC semantics: the initiator
// engine cost is lower than RC's (no ack/retransmit state), the completion
// only means "handed to the wire", and the payload may be silently dropped
// with the profile's loss probability. The caller learns nothing either
// way.
func (q *UCQP) Write(p *sim.Proc, remote RemoteMR, roff int, local []byte) error {
	if err := remote.check(roff, len(local)); err != nil {
		return err
	}
	if remote.mr.nic != q.remote {
		return ErrBadKey
	}
	n := q.local
	size := len(local)
	start := p.Now()
	p.Sleep(n.cpu(n.prof.PostNs) + n.jitter(p))
	n.outEngine.Use(p, sim.Duration(n.prof.UCWriteEngineNs))
	n.tx.Use(p, sim.Duration(n.prof.WireNs(size)))
	n.Stats.OutOps++
	n.Stats.OutBytes += uint64(size)
	// Completion is generated locally; no remote ack round trip.
	p.Sleep(n.cpu(n.prof.PollNs))
	if n.prof.LossProb > 0 && p.Rand().Float64() < n.prof.LossProb {
		n.tracer.Record(trace.Event{Start: start, End: p.Now(), Kind: trace.Drop,
			Src: n.name, Dst: q.remote.name, Bytes: size})
		return nil // silently dropped in flight
	}
	r := q.remote
	data := append([]byte(nil), local...)
	n.shard.SendAfter(r.shard, sim.Duration(n.prof.PropagationNs), func() {
		// Delivery consumes responder resources asynchronously; the target
		// was validated at post time, so a since-deregistered window just
		// drops the bytes (unreliable transport).
		r.Stats.InOps++
		r.Stats.InBytes += uint64(size)
		if remote.check(roff, size) == nil {
			copy(remote.buf(roff, size), data)
		}
	})
	n.tracer.Record(trace.Event{Start: start, End: p.Now(), Kind: trace.UCWrite,
		Src: n.name, Dst: r.name, Bytes: size})
	return nil
}

// UD is an Unreliable Datagram endpoint. Any UD endpoint can send to any
// other (no connection); two-sided only.
type UD struct {
	nic   *NIC
	recvQ *sim.Queue[message]
}

// NewUD creates a datagram endpoint on a NIC.
func NewUD(n *NIC) *UD {
	return &UD{nic: n, recvQ: sim.NewQueueOn[message](n.shard)}
}

// SendTo transmits a datagram to another UD endpoint. UD sends are the
// cheapest verb on the initiator (connectionless, no per-destination
// state), which is the HERD/FaSST performance argument — but the datagram
// may be silently lost.
func (u *UD) SendTo(p *sim.Proc, dst *UD, data []byte) error {
	n := u.nic
	start := p.Now()
	p.Sleep(n.cpu(n.prof.PostNs) + n.jitter(p))
	n.outEngine.Use(p, sim.Duration(n.prof.UDSendEngineNs))
	n.tx.Use(p, sim.Duration(n.prof.WireNs(len(data))))
	n.Stats.OutOps++
	n.Stats.OutBytes += uint64(len(data))
	n.Stats.Sends++
	p.Sleep(n.cpu(n.prof.PollNs))
	if n.prof.LossProb > 0 && p.Rand().Float64() < n.prof.LossProb {
		n.tracer.Record(trace.Event{Start: start, End: p.Now(), Kind: trace.Drop,
			Src: n.name, Dst: dst.nic.name, Bytes: len(data)})
		return nil // dropped
	}
	msg := message{data: append([]byte(nil), data...)}
	n.shard.SendAfter(dst.nic.shard, sim.Duration(n.prof.PropagationNs), func() {
		dst.recvQ.Put(msg)
	})
	n.tracer.Record(trace.Event{Start: start, End: p.Now(), Kind: trace.UDSend,
		Src: n.name, Dst: dst.nic.name, Bytes: len(data)})
	return nil
}

// Recv blocks for the next datagram. The receive side pays a reduced
// engine cost as well (one receive WQE consumed, no connection state).
func (u *UD) Recv(p *sim.Proc) []byte {
	msg := u.recvQ.Get(p)
	n := u.nic
	n.rx.Use(p, sim.Duration(n.prof.WireNs(len(msg.data))))
	n.outEngine.Use(p, sim.Duration(n.prof.UDSendEngineNs))
	p.Sleep(n.cpu(n.prof.PollNs))
	n.Stats.InBytes += uint64(len(msg.data))
	n.Stats.Recvs++
	return msg.data
}

// TryRecv returns a pending datagram without blocking.
func (u *UD) TryRecv(p *sim.Proc) ([]byte, bool) {
	msg, ok := u.recvQ.TryGet()
	if !ok {
		return nil, false
	}
	n := u.nic
	n.rx.Use(p, sim.Duration(n.prof.WireNs(len(msg.data))))
	n.outEngine.Use(p, sim.Duration(n.prof.UDSendEngineNs))
	p.Sleep(n.cpu(n.prof.PollNs))
	n.Stats.InBytes += uint64(len(msg.data))
	n.Stats.Recvs++
	return msg.data, true
}
