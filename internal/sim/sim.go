// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives the virtual RDMA cluster used throughout this
// repository. Simulated entities (client threads, server threads, NIC
// engines) are modeled two ways: as processes — ordinary Go functions
// running as coroutines of the lane driver (iter.Pull), so that exactly one
// executes at any instant of virtual time — and as run-to-completion
// callbacks (fn events) that fire and return without ever parking. The fast
// paths in internal/rnic use the callback form, so retiring their events
// costs a function call instead of two coroutine switches. A process that
// polls (SleepEvery) is both: it parks once, and the driver takes its
// wake-ups as callbacks until the one that finds its predicate true.
//
// Events live in per-lane calendar queues ordered by (time, sequence
// number); two runs with the same seed and the same spawn order produce
// identical traces. The default environment has a single lane and behaves
// exactly like a single global event queue. SetSharded partitions the
// simulation into one lane per machine and runs lanes under a conservative
// time-window barrier (see window.go), preserving determinism even when
// windows execute on multiple OS threads.
//
// Because only one event runs at a time within a lane — and cross-lane
// interactions are separated by at least the link-latency floor — simulated
// shared state (such as the byte slices backing registered RDMA memory
// regions) needs no locking, while protocol-level races — e.g. reading a
// response buffer before its status bit is set — remain perfectly
// expressible.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
)

// Time is an instant of virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros returns a Duration of us microseconds (fractional values allowed).
func Micros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// Seconds returns the duration expressed as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", float64(t)/1e3) }

// maxTime is "the end of time" for RunAll and Close drains. It leaves
// headroom so window arithmetic (tmin + lookahead) cannot overflow.
const maxTime = Time(1 << 62)

// stopped is panicked inside a process when the environment shuts down,
// unwinding its stack so the coroutine can exit.
type stopped struct{}

type event struct {
	t   Time
	seq uint64
	p   *proc // process to resume, or nil if fn-only
	fn  func()
}

// proc is the scheduler-side handle for a process: a coroutine the lane
// driver switches into with next and the process switches out of with yield.
type proc struct {
	id    int
	name  string
	lane  *lane
	next  func() (struct{}, bool) // driver -> process: run to the next park or to the end
	stop  func()                  // driver -> process: shut down (yield returns false)
	yield func(struct{}) bool     // process -> driver: I parked; set when the body starts
	done  bool

	// SleepEvery state: while napDone is set the process is parked between
	// naps and its wake-ups are ticks the lane driver takes (napTick).
	napDone func() bool
	napD    Duration
	napN    int
}

// lane is one shard of the scheduler: a virtual clock, a pending-event
// queue, a sequence counter and the processes homed to it. A default
// environment has exactly one lane; a sharded environment has one per
// machine. Everything inside a lane is single-threaded — during a parallel
// window each lane is driven by exactly one worker, and cross-lane effects
// ride the window barrier (window.go).
type lane struct {
	env     *Env
	id      int
	name    string
	q       calQueue
	seq     uint64
	now     Time
	rng     *rand.Rand
	procs   map[int]*proc
	nextID  int
	outbox  []crossEvent // cross-lane sends buffered until the window barrier
	until   Time         // active drain bound; Sleep may fast-forward up to it
	retired uint64
	hash    bool
	digest  uint64
}

// crossEvent is a deferred schedule onto another lane, delivered in
// deterministic order at the end of the window in which it was sent.
type crossEvent struct {
	t  Time
	to *lane
	fn func()
}

// Env is a simulation environment: a virtual clock plus the event scheduler.
// All processes, resources and events belong to exactly one Env. Env is not
// safe for concurrent use from multiple OS threads; everything happens on
// the goroutine calling Run and on the process coroutines it switches into
// (in sharded mode, on the window workers — see window.go).
type Env struct {
	lanes     []*lane
	def       *lane // lanes[0]; the only lane unless sharded
	seed      int64
	sharded   bool
	workers   int
	lookahead Duration // conservative window width; min cross-lane latency
	xbuf      []crossEvent
	now       Time
	closed    bool
	hash      bool
}

// NewEnv returns a fresh environment whose clock reads zero and whose
// pseudo-random source is seeded with seed.
func NewEnv(seed int64) *Env {
	e := &Env{seed: seed}
	e.def = e.newLane("main")
	return e
}

func (e *Env) newLane(name string) *lane {
	id := len(e.lanes)
	seed := e.seed
	if id > 0 {
		// Derived lanes get their own deterministic stream so same-seed
		// sharded runs replay byte-identically regardless of worker count.
		seed = e.seed*1_000_003 + int64(id)
	}
	l := &lane{
		env:   e,
		id:    id,
		name:  name,
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[int]*proc),
		hash:  e.hash,
	}
	l.digest = fnvOffset64
	e.lanes = append(e.lanes, l)
	return l
}

// Now returns the current virtual time.
func (e *Env) Now() Time {
	if e.sharded {
		return e.now
	}
	return e.def.now
}

// Rand returns the environment's deterministic random source (the default
// lane's source in sharded mode). It must only be used from process context
// or between Run calls, never concurrently.
func (e *Env) Rand() *rand.Rand { return e.def.rng }

//rfp:hotpath
func (l *lane) schedule(t Time, p *proc, fn func()) {
	// A proc may only ever be woken on its home lane: a cross-lane wake
	// (e.g. a Resource bound to the wrong lane) would resume it from a
	// foreign lane's driver, concurrently with its own lane's events, and
	// break the sharded kernel's determinism. Catch it at the scheduling
	// point, where the blame is clear.
	if p != nil && p.lane != l {
		panicForeignLane(p, l)
	}
	if t < l.now {
		t = l.now
	}
	l.seq++
	l.q.push(event{t: t, seq: l.seq, p: p, fn: fn})
}

// At schedules fn to run at absolute time t (clamped to now if in the past).
// fn runs in scheduler context and must not block. In sharded mode the fn is
// homed to the default lane; use Shard.At for machine-homed callbacks.
func (e *Env) At(t Time, fn func()) { e.def.schedule(t, nil, fn) }

// After schedules fn to run d from now. fn runs in scheduler context and
// must not block.
func (e *Env) After(d Duration, fn func()) { e.def.schedule(e.def.now.Add(d), nil, fn) }

// Proc is the in-process view of a running simulation process. A Proc is
// only valid inside the function passed to Go; calls on it from any other
// goroutine corrupt the simulation.
type Proc struct {
	env *Env
	p   *proc
}

// Now returns the current virtual time (of this process's lane).
func (p *Proc) Now() Time { return p.p.lane.now }

// Rand returns the deterministic random source of this process's lane.
func (p *Proc) Rand() *rand.Rand { return p.p.lane.rng }

// Go spawns a new process executing fn. The process starts at the current
// virtual time, after the spawning context yields control. In sharded mode
// the process is homed to the default lane; use Shard.Go for machine-homed
// processes.
//
// fn runs as a coroutine of whichever goroutine drives its lane, so what
// ends fn abnormally lands on that goroutine: a panic in fn surfaces from
// Run with the original value, and runtime.Goexit in fn (t.FailNow, t.Fatal)
// ends the goroutine that called Run. With SetSharded(n > 1) the driver is
// a window worker, not Run's caller: a panic there crashes the program and
// a Goexit ends only that worker.
func (e *Env) Go(name string, fn func(*Proc)) { e.def.gogo(name, fn) }

func (l *lane) gogo(name string, fn func(*Proc)) {
	e := l.env
	if e.closed {
		panic("sim: Go on closed Env")
	}
	l.nextID++
	pr := &proc{id: l.nextID, name: name, lane: l}
	l.procs[pr.id] = pr
	pr.next, pr.stop = iter.Pull(func(yield func(struct{}) bool) {
		pr.yield = yield
		defer func() {
			pr.done = true
			delete(l.procs, pr.id)
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					panic(r)
				}
			}
		}()
		fn(&Proc{env: e, p: pr})
	})
	l.schedule(l.now, pr, nil)
}

// park suspends the calling process until the scheduler resumes it.
func (p *Proc) park() {
	if !p.p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Sleep advances the process by d of virtual time. Non-positive durations
// still yield to the scheduler (other events at the same instant run first).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	l := p.p.lane
	wake := l.now.Add(d)
	if l.sleepFast(wake) {
		return
	}
	l.schedule(wake, p.p, nil)
	p.park()
}

// SleepUntil advances the process to absolute time t (no-op wait if t has
// already passed, but still yields).
func (p *Proc) SleepUntil(t Time) {
	l := p.p.lane
	if t < l.now {
		t = l.now
	}
	if l.sleepFast(t) {
		return
	}
	l.schedule(t, p.p, nil)
	p.park()
}

// sleepFast advances the lane clock to wake without yielding when the
// sleeping process's wakeup would be the very next event anyway: nothing is
// pending at or before wake and the active drain extends past it. Within a
// lane exactly one context executes at a time, so if the queue's head lies
// strictly beyond wake, scheduling the wakeup and parking would switch to
// the driver only for it to switch straight back — same state, same order,
// two coroutine switches later. The wakeup is never scheduled, so no
// sequence number is consumed and no event is retired; ordering among real
// events is unchanged.
//
//rfp:hotpath
func (l *lane) sleepFast(wake Time) bool {
	if wake > l.until {
		return false
	}
	if t, ok := l.q.peek(); ok && t <= wake {
		return false
	}
	l.now = wake
	return true
}

// SleepEvery naps d at a time until done reports true after a nap, and
// returns the number of naps taken. It is exactly
//
//	for n := 1; ; n++ {
//		p.Sleep(d)
//		if done() {
//			return n
//		}
//	}
//
// — every nap is the event that loop's Sleep would have scheduled, at the
// same point and with the same (t, seq), or the same sleepFast elision — but
// a wake-up that finds done false costs a callback, not a coroutine round
// trip: the lane driver evaluates done itself and switches into the process
// only once it holds. done therefore runs in scheduler context for every nap
// but those the fast path takes: it must not block, and anything it does per
// nap (accounting) happens at that nap's instant either way. A panic in done
// surfaces from Run with its original value; raised from a tick it leaves the
// process parked, for Close to unwind.
//
//rfp:hotpath
func (p *Proc) SleepEvery(d Duration, done func() bool) int {
	if d < 0 {
		d = 0
	}
	pr := p.p
	pr.napDone, pr.napD, pr.napN = done, d, 0
	if !pr.nap() {
		p.park()
	}
	pr.napDone = nil
	return pr.napN
}

// nap takes SleepEvery's naps for as long as they need no event (sleepFast)
// and done stays false. It reports true when done held, the lane clock at
// that nap's wake; false once the next nap is a scheduled tick.
//
//rfp:hotpath
func (pr *proc) nap() bool {
	l := pr.lane
	for {
		wake := l.now.Add(pr.napD)
		if !l.sleepFast(wake) {
			l.schedule(wake, pr, nil)
			return false
		}
		pr.napN++
		if pr.napDone() {
			return true
		}
	}
}

// napTick is the lane driver's half of SleepEvery: the wake-up of a process
// parked between naps. The event names its process like any other wake-up —
// Close unwinds it at the same place in (t, seq) order and a stale one is
// dropped — but the process is resumed only if done holds after this nap or
// one of the event-free naps that follow it.
//
//rfp:hotpath
func (pr *proc) napTick() {
	pr.napN++
	if pr.napDone() || pr.nap() {
		pr.next()
	}
}

// drain retires this lane's events in (t, seq) order until the next event
// lies beyond until, then fast-forwards the lane clock to until. This is the
// kernel hot loop: fn events and SleepEvery ticks dispatch as a plain call;
// only process events that resume their process pay the coroutine switch
// (and its switch back at the next park).
//
//rfp:hotpath
func (l *lane) drain(until Time) {
	l.until = until
	for {
		ev, ok := l.q.pop(until)
		if !ok {
			break
		}
		l.now = ev.t
		l.retired++
		if l.hash {
			l.digest = fnvMix64(fnvMix64(l.digest, uint64(ev.t)), ev.seq)
		}
		if ev.p != nil {
			if ev.p.done {
				continue // stale wakeup for a finished process
			}
			if ev.p.napDone != nil {
				ev.p.napTick()
			} else {
				ev.p.next()
			}
			continue
		}
		if ev.fn != nil {
			ev.fn()
		}
	}
	if l.now < until {
		l.now = until
	}
}

// Run executes events until the event queue is empty or the clock would pass
// until. It returns the virtual time at which it stopped. Events scheduled
// exactly at until are executed.
func (e *Env) Run(until Time) Time {
	if e.closed {
		panic("sim: Run on closed Env")
	}
	if e.sharded {
		return e.runSharded(until)
	}
	l := e.def
	l.drain(until)
	e.now = l.now
	return e.now
}

// RunAll executes events until every lane's queue drains completely
// (deadlocked processes — parked with nothing to wake them — do not count
// as events).
func (e *Env) RunAll() Time {
	for {
		idle := true
		for _, l := range e.lanes {
			if !l.q.empty() {
				idle = false
				break
			}
		}
		if idle {
			break
		}
		e.Run(maxTime)
	}
	return e.Now()
}

// Close shuts the environment down, unwinding every process that is still
// alive: a parked process runs its deferred functions, one that was spawned
// but never resumed never runs at all. Pending events are drained lane by
// lane and leftover parked processes are stopped in ascending id order, so
// two identical mid-run environments shut down with identical traces. The
// Env must not be used afterwards. Close is idempotent.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, l := range e.lanes {
		// Drain queue-scheduled processes first, in (t, seq) order.
		for {
			ev, ok := l.q.pop(maxTime)
			if !ok {
				break
			}
			if ev.p != nil {
				ev.p.stop()
			}
		}
		// Then unwind externally-parked processes (waiting on resources
		// or queues) in ascending id order — deterministically,
		// unlike map iteration.
		ids := make([]int, 0, len(l.procs))
		for id := range l.procs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			l.procs[id].stop()
		}
		l.procs = map[int]*proc{}
		l.outbox = nil
	}
}

// EnableKernelTrace turns on per-lane digesting of retired events: each
// retired (t, seq) pair is folded into an FNV-1a accumulator. The digest is
// the kernel's own fingerprint of a run — the cross-kernel equivalence
// tests compare it between serial and parallel executions. Off by default;
// the hot loop pays one predictable branch for it.
func (e *Env) EnableKernelTrace() {
	e.hash = true
	for _, l := range e.lanes {
		l.hash = true
	}
}

// EventsRetired returns the total number of events the kernel has retired.
func (e *Env) EventsRetired() uint64 {
	var n uint64
	for _, l := range e.lanes {
		n += l.retired
	}
	return n
}

// KernelDigest folds the per-lane event digests (in lane order) into one
// fingerprint. Only meaningful after EnableKernelTrace.
func (e *Env) KernelDigest() uint64 {
	h := uint64(fnvOffset64)
	for _, l := range e.lanes {
		h = fnvMix64(h, l.digest)
		h = fnvMix64(h, l.retired)
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix64 folds one 64-bit value into an FNV-1a accumulator byte by byte.
//
//rfp:hotpath
func fnvMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func panicForeignLane(p *proc, l *lane) {
	panic("sim: schedule of proc " + p.name + " (lane " + p.lane.name + ") onto foreign lane " + l.name)
}
