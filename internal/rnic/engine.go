package rnic

// Run-to-completion initiator engine and flight state machine: the one
// one-sided data path, behind both the blocking verbs (qp.go) and Post/CQ
// (async.go). An operation's life is a chain of scheduled continuations, so
// retiring an event costs a function call instead of two coroutine switches,
// and the per-operation state lives in a pooled flightOp instead of a
// process stack — steady-state posting allocates nothing, from the post to
// the reaped completion: posted work requests wait in a ring, completions
// are handed over through the kernel's ring-backed queues, and
// TestSteadyStateVerbsAllocFree pins the whole path at 0 allocations
// (TestPendingWRsBoundedOnBusyQP: the pending ring stays the size of the
// deepest backlog on a QP that never idles).
//
// The life splits where the hardware pipelines. Issue: the initiator engine
// serializes work requests one at a time (per NIC, in post order) and, for
// writes, pushes the payload onto the TX pipe. Flight: wire propagation,
// responder-side engine/bandwidth work, the payload copy, and propagation
// of the ack/response back; later work requests overlap with this phase
// freely. The event sequence (one event per delay, a grant and an expiry
// per resource hold, one zero-delay event at the issue→flight handoff) is
// pinned by the archived-run byte-identity tests.
//
// The flight's remote phases run on the responder's lane: the request and
// response hops cross lanes via Shard.SendAfter with the propagation delay,
// which is at least the environment's lookahead floor. Injector state (its
// RNG) and the caller's buffers are initiator-side, so every injector call
// happens on the initiator's lane: Decide at issue, Damage of a write image
// at departure, Damage of a read payload at completion.

import (
	"rfp/internal/sim"
	"rfp/internal/trace"
)

// qpEngine drains one QP's posted work requests in order, issuing through
// the local NIC's out-bound engine one at a time (hardware initiator
// serialization) while flights overlap freely.
type qpEngine struct {
	q       *QP
	pend    sim.Ring[asyncWR] // posted WRs not yet issued, in post order
	idle    bool
	issuing *flightOp

	outUse sim.TimedUse // out-bound engine occupancy of the WR being issued
	txUse  sim.TimedUse // TX-pipe occupancy (writes only)

	// Continuations, bound once at engine creation.
	step     func()
	afterOut func()
	afterTx  func()

	free *flightOp // pooled flight records
}

// ensureEngine lazily attaches the run-to-completion engine to the QP.
func (q *QP) ensureEngine() {
	if q.eng != nil {
		return
	}
	e := &qpEngine{q: q, idle: true}
	e.step = e.run
	e.afterOut = e.onOutDone
	e.afterTx = e.onTxDone
	e.outUse.Bind()
	e.txUse.Bind()
	q.eng = e
}

// enqueue appends one posted WR and kicks the engine if it was idle.
//
//rfp:hotpath
func (e *qpEngine) enqueue(a asyncWR) {
	e.pend.Push(a)
	if e.idle {
		e.idle = false
		e.q.local.shard.After(0, e.step)
	}
}

// run processes pending WRs until one reaches the issue phase (the engine
// then "blocks" holding the out-bound engine and resumes via afterOut) or
// the queue drains (the engine goes idle until the next post).
//
//rfp:hotpath
func (e *qpEngine) run() {
	q := e.q
	for {
		if e.pend.Len() == 0 {
			e.idle = true
			return
		}
		a := e.pend.Pop()
		wr, cq := a.wr, a.cq
		// Dead-endpoint and validation errors complete immediately.
		if err := q.gate(); err != nil {
			cq.put(CQE{ID: wr.ID, Op: wr.Op, Err: err})
			continue
		}
		if err := q.checkTarget(wr.Remote, wr.Roff, len(wr.Local)); err != nil {
			cq.put(CQE{ID: wr.ID, Op: wr.Op, Err: err})
			continue
		}
		act := q.decideAt(q.local.shard.Now(), wr.Op, len(wr.Local))
		if act.Err != nil {
			cq.put(CQE{ID: wr.ID, Op: wr.Op, Err: act.Err})
			continue
		}
		fl := e.getFlight()
		fl.wr, fl.cq, fl.act = wr, cq, act
		fl.start = q.local.shard.Now()
		fl.err = nil
		e.issuing = fl
		// Initiator engine: serialized per NIC, in post order.
		n := q.local
		e.outUse.Start(n.outEngine, sim.Duration(n.prof.OutEngineTimeNs(n.issuers, wr.Op == WRRead)), e.afterOut)
		return
	}
}

//rfp:hotpath
func (e *qpEngine) onOutDone() {
	n := e.q.local
	n.Stats.OutOps++
	fl := e.issuing
	if fl.wr.Op == WRWrite {
		n.Stats.OutBytes += uint64(len(fl.wr.Local))
		e.txUse.Start(n.tx, sim.Duration(n.prof.WireNs(len(fl.wr.Local))), e.afterTx)
		return
	}
	e.launch()
}

//rfp:hotpath
func (e *qpEngine) onTxDone() { e.launch() }

// launch detaches the issued WR's flight (network + responder phases
// overlap with later WRs) and immediately looks for the next pending WR
// within the same instant.
//
//rfp:hotpath
func (e *qpEngine) launch() {
	fl := e.issuing
	e.issuing = nil
	e.q.local.shard.After(0, fl.stepLaunch)
	e.run()
}

// getFlight takes a pooled flight record, allocating (and binding its
// continuations) only on pool growth.
//
//rfp:hotpath
func (e *qpEngine) getFlight() *flightOp {
	fl := e.free
	if fl == nil {
		fl = newFlightOp(e)
		return fl
	}
	e.free = fl.next
	fl.next = nil
	return fl
}

//rfp:hotpath
func (e *qpEngine) putFlight(fl *flightOp) {
	fl.next = e.free
	e.free = fl
}

// flightOp carries one operation through its network and responder phases
// under its fault action; with a zero action every fault branch below is a
// failed field check.
type flightOp struct {
	e     *qpEngine
	wr    WR
	cq    *CQ
	act   FaultAction
	start sim.Time
	err   error
	buf   []byte // damaged write image (act.Corrupt), reused across ops
	data  []byte // payload delivered to the responder: wr.Local or buf
	next  *flightOp

	rxUse sim.TimedUse // responder RX pipe (writes)
	inUse sim.TimedUse // responder in-bound engine
	txUse sim.TimedUse // responder TX pipe (read responses)

	// Continuations, bound once at construction.
	stepLaunch   func()
	stepDepart   func()
	stepHome     func()
	stepRemote   func()
	stepWrIn     func()
	stepWrCopy   func()
	stepRdExtra  func()
	stepRdCopy   func()
	stepRdDone   func()
	stepTailDrop func()
	stepFailHome func()
	stepComplete func()
}

func newFlightOp(e *qpEngine) *flightOp {
	fl := &flightOp{e: e}
	fl.stepLaunch = fl.onLaunch
	fl.stepDepart = fl.depart
	fl.stepHome = fl.homeLocal
	fl.stepRemote = fl.onRemoteArrive
	fl.stepWrIn = fl.onWrIn
	fl.stepWrCopy = fl.onWrCopy
	fl.stepRdExtra = fl.onRdExtra
	fl.stepRdCopy = fl.onRdCopy
	fl.stepRdDone = fl.onRdDone
	fl.stepTailDrop = fl.onTailDrop
	fl.stepFailHome = fl.onFailHome
	fl.stepComplete = fl.onComplete
	fl.rxUse.Bind()
	fl.inUse.Bind()
	fl.txUse.Bind()
	return fl
}

func (f *flightOp) op() FaultOp {
	q := f.e.q
	return FaultOp{Op: f.wr.Op, Bytes: len(f.wr.Local),
		Initiator: q.local.name, Target: q.remote.name}
}

// onLaunch is the flight's first event.
//
//rfp:hotpath
func (f *flightOp) onLaunch() {
	if f.act.ExtraNs > 0 {
		f.e.q.local.shard.After(sim.Duration(f.act.ExtraNs), f.stepDepart)
		return
	}
	f.depart()
}

//rfp:hotpath
func (f *flightOp) depart() {
	q := f.e.q
	f.data = f.wr.Local
	if f.act.Corrupt && f.wr.Op == WRWrite {
		// The damaged image is delivered; the caller's buffer is untouched.
		f.buf = append(f.buf[:0], f.wr.Local...)
		q.local.injector.Damage(f.op(), f.buf)
		f.data = f.buf
	}
	if f.wr.Op == WRRead && f.act.DropNs > 0 {
		// The read response is lost: nothing lands locally and the
		// initiator times out waiting for the completion.
		f.err = ErrTimeout
		q.local.shard.After(sim.Duration(f.act.DropNs), f.stepHome)
		return
	}
	// The request hop, crossing to the responder's lane when sharded.
	q.local.shard.SendAfter(q.remote.shard, sim.Duration(q.local.prof.PropagationNs), f.stepRemote)
}

// homeLocal schedules the return hop then completion: used by the read-drop
// path, which never leaves the initiator's lane.
//
//rfp:hotpath
func (f *flightOp) homeLocal() {
	q := f.e.q
	q.local.shard.After(sim.Duration(q.local.prof.PropagationNs), f.stepComplete)
}

// onRemoteArrive runs on the responder's lane. The target was validated at
// post time, but a crash can land while the request is on the wire — so the
// responder state is re-checked on arrival.
//
//rfp:hotpath
func (f *flightOp) onRemoteArrive() {
	q := f.e.q
	r := q.remote
	if r.down {
		f.err = ErrNICDown
		f.failRemote()
		return
	}
	if err := f.wr.Remote.check(f.wr.Roff, len(f.wr.Local)); err != nil {
		f.err = err
		f.failRemote()
		return
	}
	if f.wr.Op == WRWrite {
		// Responder side: RX pipe + in-bound engine, all in NIC hardware.
		f.rxUse.Start(r.rx, sim.Duration(r.prof.WireNs(len(f.wr.Local))), f.stepWrIn)
		return
	}
	// The responder engine is only occupied for the base in-bound service
	// time (its reciprocal is the in-bound IOPS ceiling); assembling the
	// read response adds pipeline latency without consuming throughput.
	f.inUse.Start(r.inEngine, sim.Duration(r.prof.InEngineNs), f.stepRdExtra)
}

// failRemote handles a dead responder or vanished registration discovered
// in flight: charge the transport's retry/timeout window, then propagate
// the failure home.
func (f *flightOp) failRemote() {
	f.e.q.remote.shard.After(sim.Duration(faultTimeoutNs), f.stepFailHome)
}

//rfp:hotpath
func (f *flightOp) onFailHome() {
	q := f.e.q
	q.remote.shard.SendAfter(q.local.shard, sim.Duration(q.local.prof.PropagationNs), f.stepComplete)
}

//rfp:hotpath
func (f *flightOp) onWrIn() {
	r := f.e.q.remote
	f.inUse.Start(r.inEngine, sim.Duration(r.prof.InEngineNs), f.stepWrCopy)
}

//rfp:hotpath
func (f *flightOp) onWrCopy() {
	r := f.e.q.remote
	size := len(f.wr.Local)
	copy(f.wr.Remote.buf(f.wr.Roff, size), f.data)
	r.Stats.InOps++
	r.Stats.InBytes += uint64(size)
	f.tail()
}

//rfp:hotpath
func (f *flightOp) onRdExtra() {
	// Response assembly latency that does not occupy the in-bound engine.
	f.e.q.remote.shard.After(sim.Duration(f.e.q.remote.prof.ReadRespExtraNs), f.stepRdCopy)
}

//rfp:hotpath
func (f *flightOp) onRdCopy() {
	q := f.e.q
	r := q.remote
	size := len(f.wr.Local)
	// Snapshot the remote bytes at response-generation time. This is where
	// the data race the paper discusses lives: a torn read of a region being
	// concurrently modified is returned verbatim; consistency is the
	// application's problem (CRCs in Pilaf, status bits in RFP).
	copy(f.wr.Local, f.wr.Remote.buf(f.wr.Roff, size))
	f.txUse.Start(r.tx, sim.Duration(r.prof.WireNs(size)), f.stepRdDone)
}

//rfp:hotpath
func (f *flightOp) onRdDone() {
	r := f.e.q.remote
	r.Stats.InOps++
	r.Stats.InBytes += uint64(len(f.wr.Local))
	f.tail()
}

// tail runs once the responder has served the operation.
//
//rfp:hotpath
func (f *flightOp) tail() {
	if f.act.DropNs > 0 {
		// Write delivered but its completion lost — the classic ambiguous
		// failure: the initiator times out not knowing the bytes landed.
		f.err = ErrTimeout
		f.e.q.remote.shard.After(sim.Duration(f.act.DropNs), f.stepTailDrop)
		return
	}
	f.homeRemote()
}

//rfp:hotpath
func (f *flightOp) onTailDrop() { f.homeRemote() }

//rfp:hotpath
func (f *flightOp) homeRemote() {
	// The response/ack hop back to the initiator's lane.
	q := f.e.q
	q.remote.shard.SendAfter(q.local.shard, sim.Duration(q.local.prof.PropagationNs), f.stepComplete)
}

// onComplete runs on the initiator's lane: damage a corrupted read payload,
// trace, deliver the CQE, recycle.
//
//rfp:hotpath
func (f *flightOp) onComplete() {
	e := f.e
	q := e.q
	if f.act.Corrupt && f.wr.Op == WRRead && f.err == nil {
		q.local.injector.Damage(f.op(), f.wr.Local)
	}
	if f.err == nil {
		kind := trace.Write
		if f.wr.Op == WRRead {
			kind = trace.Read
		}
		q.local.tracer.Record(trace.Event{Start: f.start, End: q.local.shard.Now(), Kind: kind,
			Src: q.local.name, Dst: q.remote.name, Bytes: len(f.wr.Local)})
	}
	cq, id, op, err := f.cq, f.wr.ID, f.wr.Op, f.err
	f.cq = nil
	f.wr = WR{}
	f.data = nil
	f.act = FaultAction{}
	f.err = nil
	e.putFlight(f)
	cq.put(CQE{ID: id, Op: op, Err: err})
}
