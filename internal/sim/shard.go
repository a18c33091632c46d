package sim

// Sharded simulation: an opt-in mode that partitions the event queue into
// one lane per machine, so each machine's events retire in a deterministic
// per-machine order (its own clock, queue and PRNG stream). Lanes are an
// ordering device, not a route to real cores: every window runs on Run's
// goroutine. A Shard is the public handle onto a lane. In a default
// (non-sharded) environment every Shard aliases the single lane, all Shard
// operations reduce to their Env equivalents, and nothing changes
// behaviorally — the serial kernel stays the default and its traces stay
// byte-identical.
//
// The contract that keeps lanes deterministic: within a lane, events run
// strictly in (time, seq) order; between lanes, every interaction must be
// separated by at least the environment's lookahead (the minimum
// cross-machine link latency, observed via ObserveLinkFloor). Cross-lane
// sends are buffered in the sending lane's outbox and delivered at the end
// of the window in (time, sending lane, emission order). See window.go.

import "fmt"

// Shard is a handle onto one scheduler lane. Machines obtain theirs from
// Env.NewShard at topology-construction time; processes reach their own via
// Proc.Shard.
type Shard struct {
	l *lane
}

// SetSharded switches the environment into sharded mode: subsequent NewShard
// calls create real lanes, and Run drives them window by window on the
// calling goroutine. The workers argument is ignored; it remains because
// the benchmark harness (bench/api.go) still passes a worker count. Must be
// called before any scheduling or shard creation.
func (e *Env) SetSharded(workers int) {
	if e.def.seq > 0 || len(e.lanes) > 1 {
		panic("sim: SetSharded after scheduling began")
	}
	e.sharded = true
}

// Sharded reports whether the environment is in sharded mode.
func (e *Env) Sharded() bool { return e.sharded }

// DefaultShard returns the handle for the default lane.
func (e *Env) DefaultShard() *Shard { return &Shard{l: e.def} }

// NewShard creates a new lane named after a machine. In a non-sharded
// environment it returns the default shard, so topology code can call it
// unconditionally.
func (e *Env) NewShard(name string) *Shard {
	if !e.sharded {
		return e.DefaultShard()
	}
	return &Shard{l: e.newLane(name)}
}

// ObserveLinkFloor lowers the conservative-window lookahead to d if it is
// the smallest cross-machine latency seen so far. The fabric layer calls
// this once per link profile; sharded Run panics if no floor was observed.
func (e *Env) ObserveLinkFloor(d Duration) {
	if !e.sharded || d <= 0 {
		return
	}
	if e.lookahead == 0 || d < e.lookahead {
		e.lookahead = d
	}
}

// Now returns the shard's lane clock.
func (sh *Shard) Now() Time { return sh.l.now }

// Go spawns a process homed to this shard's lane.
func (sh *Shard) Go(name string, fn func(*Proc)) { sh.l.gogo(name, fn) }

// At schedules fn on this shard's lane at absolute time t. Must be called
// from this shard's own context (its events or processes, or setup code
// between Run calls).
func (sh *Shard) At(t Time, fn func()) { sh.l.schedule(t, nil, fn) }

// After schedules fn on this shard's lane d from its current time.
//
//rfp:hotpath
func (sh *Shard) After(d Duration, fn func()) {
	sh.l.schedule(sh.l.now.Add(d), nil, fn)
}

// SendAfter schedules fn onto shard to, d after this shard's current time.
// Same-lane sends are ordinary After calls with zero extra cost — in a
// non-sharded environment every send takes that path, so using SendAfter
// unconditionally for message delivery keeps single-lane runs unchanged.
// Cross-lane sends are buffered and delivered at the window barrier; they
// must respect the lookahead floor (link latency), which guarantees the
// event lands strictly after the receiving lane's current window.
//
//rfp:hotpath
func (sh *Shard) SendAfter(to *Shard, d Duration, fn func()) {
	if sh.l == to.l {
		sh.l.schedule(sh.l.now.Add(d), nil, fn)
		return
	}
	if d < sh.l.env.lookahead {
		panicBelowLookahead(d, sh.l.env.lookahead)
	}
	sh.l.outbox = append(sh.l.outbox, crossEvent{t: sh.l.now.Add(d), to: to.l, fn: fn})
}

func panicBelowLookahead(d, floor Duration) {
	panic(fmt.Sprintf("sim: cross-shard send %dns below lookahead floor %dns", d, floor))
}
