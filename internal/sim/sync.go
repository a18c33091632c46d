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
	waiters []waiter

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
	if r.inUse != 0 || len(r.waiters) != 0 {
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
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.account()
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, waiter{p: p.p})
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
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters[0] = waiter{}
		r.waiters = r.waiters[1:]
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
	if r.inUse < r.cap && len(r.waiters) == 0 {
		r.account()
		r.inUse++
		r.l.schedule(r.l.now.Add(d), nil, t.expire)
		return
	}
	r.waiters = append(r.waiters, waiter{fn: t.grant})
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
	items   []T
	waiters []*proc
}

// NewQueue returns an empty queue bound to e's default lane.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{l: e.def} }

// NewQueueOn returns an empty queue bound to a shard's lane.
func NewQueueOn[T any](sh *Shard) *Queue[T] { return &Queue[T]{l: sh.l} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v and wakes one waiter if any. It may be called from process
// or scheduler context.
//
//rfp:hotpath
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.l.schedule(q.l.now, w, nil)
	}
}

// Get removes and returns the oldest item, parking p until one exists.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p.p)
		p.park()
	}
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	// If items remain and more waiters exist, propagate the wakeup so a
	// multi-item Put burst wakes enough getters.
	if len(q.items) > 0 && len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.l.schedule(q.l.now, w, nil)
	}
	return v
}

// TryGet removes and returns the oldest item without blocking.
//
//rfp:hotpath
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}
