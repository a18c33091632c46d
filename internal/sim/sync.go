package sim

// This file provides the synchronization primitives processes use to
// interact: FIFO resources (queueing servers) and unbounded message
// queues. Both wake waiters through the central per-lane event queue,
// preserving deterministic (time, seq) ordering.
//
// Resources admit two kinds of waiters in one FIFO: parked processes
// (woken by rescheduling the proc) and run-to-completion continuations
// (woken by scheduling a fn event). Both wake forms cost exactly one
// event, so mixing callback-based initiators with process-based ones on
// the same resource preserves the event sequence either way.
//
// Every FIFO here — a queue's items, its parked getters, a resource's
// waiters — is a Ring (ring.go), so a hand-off allocates nothing once the
// ring has grown to the deepest backlog it has held.

// waiter is one FIFO entry: a parked process or a pending continuation.
type waiter struct {
	p  *proc
	fn func()
}

// Resource is a queueing server with fixed capacity: at most cap processes
// hold it simultaneously; the rest wait FIFO. It models contended hardware
// engines (NIC processing units, bus locks) whose throughput ceiling emerges
// from holding the resource for a service time per operation.
type Resource struct {
	l       *lane
	cap     int
	inUse   int
	waiters Ring[waiter]

	// Busy accumulates total holder-occupancy time, for utilization
	// accounting: utilization = Busy / (cap * elapsed).
	Busy Duration

	lastChange Time
}

// NewResource returns a resource with the given concurrent capacity, bound
// to e's default lane.
func NewResource(e *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{l: e.def, cap: capacity}
}

// NewResourceOn returns a resource bound to a shard's lane.
func NewResourceOn(sh *Shard, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{l: sh.l, cap: capacity}
}

// SetShard rebinds the resource to a shard's lane. Topology code calls this
// right after machine construction, before any use; rebinding a resource
// with waiters or held slots would corrupt accounting and panics.
func (r *Resource) SetShard(sh *Shard) {
	if r.inUse != 0 || r.waiters.Len() != 0 {
		panic("sim: SetShard on a resource in use")
	}
	r.l = sh.l
}

//rfp:hotpath
func (r *Resource) account() {
	r.Busy += Duration(r.inUse) * r.l.now.Sub(r.lastChange)
	r.lastChange = r.l.now
}

// Acquire blocks p until a capacity slot is free, then takes it.
//
//rfp:hotpath
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && r.waiters.Len() == 0 {
		r.account()
		r.inUse++
		return
	}
	r.waiters.Push(waiter{p: p.p})
	p.park()
	// Slot was transferred to us by Release before we were woken.
}

// Release frees a slot, waking the longest-waiting process or continuation
// if any.
//
//rfp:hotpath
func (r *Resource) Release() {
	r.account()
	r.inUse--
	if r.inUse < 0 {
		panicReleaseUnderflow()
	}
	if r.waiters.Len() > 0 {
		w := r.waiters.Pop()
		r.inUse++ // transfer the slot to the woken waiter
		r.l.schedule(r.l.now, w.p, w.fn)
	}
}

// Use acquires the resource, holds it for d, and releases it: the basic
// "serve one operation" pattern.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// TimedUse is the run-to-completion counterpart of Use: acquire a resource,
// hold it for a duration, release it, then run a continuation — without a
// process. Its event pattern mirrors Use exactly: an immediate grant costs
// one event (the hold expiry, like Use's Sleep), and a contended grant costs
// one wake event from Release plus the expiry, like waking a parked process
// that then sleeps.
//
// A TimedUse is a reusable timer node: Bind once when the owning structure
// is built (the two closure allocations happen there), then Start per
// operation — steady-state operation allocates nothing. A TimedUse must not
// be restarted while a previous Start is still in flight.
type TimedUse struct {
	r      *Resource
	d      Duration
	done   func()
	grant  func() // bound once: slot granted by Release
	expire func() // bound once: hold time elapsed
}

// Bind materializes the internal continuations. Call once at construction.
func (t *TimedUse) Bind() {
	t.grant = t.onGrant
	t.expire = t.onExpire
}

// Start acquires r (immediately or by joining the FIFO), holds it for d,
// releases it, then calls done.
//
//rfp:hotpath
func (t *TimedUse) Start(r *Resource, d Duration, done func()) {
	if t.grant == nil {
		panicUnboundTimedUse()
	}
	t.r, t.d, t.done = r, d, done
	if r.inUse < r.cap && r.waiters.Len() == 0 {
		r.account()
		r.inUse++
		r.l.schedule(r.l.now.Add(d), nil, t.expire)
		return
	}
	r.waiters.Push(waiter{fn: t.grant})
}

//rfp:hotpath
func (t *TimedUse) onGrant() {
	// Release already transferred the slot to us (exactly as it does for a
	// parked process); start the hold.
	r := t.r
	r.l.schedule(r.l.now.Add(t.d), nil, t.expire)
}

//rfp:hotpath
func (t *TimedUse) onExpire() {
	t.r.Release()
	t.done()
}

func panicReleaseUnderflow() { panic("sim: Release without Acquire") }

func panicUnboundTimedUse() { panic("sim: TimedUse.Start before Bind") }

// Queue is an unbounded FIFO message queue between processes. Put never
// blocks; Get parks until an item is available. Items are delivered in FIFO
// order and waiters are served in FIFO order.
type Queue[T any] struct {
	l       *lane
	items   Ring[T]
	waiters Ring[*proc]
}

// NewQueue returns an empty queue bound to e's default lane.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{l: e.def} }

// NewQueueOn returns an empty queue bound to a shard's lane.
func NewQueueOn[T any](sh *Shard) *Queue[T] { return &Queue[T]{l: sh.l} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Put appends v and wakes one waiter if any. It may be called from process
// or scheduler context.
//
//rfp:hotpath
func (q *Queue[T]) Put(v T) {
	q.items.Push(v)
	if q.waiters.Len() > 0 {
		q.l.schedule(q.l.now, q.waiters.Pop(), nil)
	}
}

// Get removes and returns the oldest item, parking p until one exists.
//
//rfp:hotpath
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		q.waiters.Push(p.p)
		p.park()
	}
	v := q.items.Pop()
	// If items remain and more waiters exist, propagate the wakeup so a
	// multi-item Put burst wakes enough getters.
	if q.items.Len() > 0 && q.waiters.Len() > 0 {
		q.l.schedule(q.l.now, q.waiters.Pop(), nil)
	}
	return v
}

// TryGet removes and returns the oldest item without blocking.
//
//rfp:hotpath
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
}
