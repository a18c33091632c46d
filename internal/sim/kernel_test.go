package sim

// Edge-case and steady-state tests for the flattened kernel: exact Run
// boundaries, stale wakeups, self-rescheduling fn events, allocation-free
// steady-state scheduling, and the sharded kernel's worker-count
// independence.

import (
	"fmt"
	"testing"
)

func TestRunExecutesEventExactlyAtUntil(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	atBoundary, pastBoundary := false, false
	e.At(100, func() { atBoundary = true })
	e.At(101, func() { pastBoundary = true })
	if end := e.Run(Time(100)); end != 100 {
		t.Fatalf("Run returned %v, want 100", end)
	}
	if !atBoundary {
		t.Fatal("event scheduled exactly at until did not run")
	}
	if pastBoundary {
		t.Fatal("event one tick past until ran early")
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %v after Run(100)", e.Now())
	}
	e.Run(Time(101))
	if !pastBoundary {
		t.Fatal("event at 101 did not run on the next Run")
	}
}

func TestStaleWakeupForFinishedProcessIgnored(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var pr *proc
	e.Go("short", func(p *Proc) { pr = p.p })
	e.Run(Time(10))
	if pr == nil || !pr.done {
		t.Fatal("process did not finish")
	}
	// A wakeup targeting a finished process must be dropped by the drain
	// loop, not resumed (the goroutine is gone) and not block later events.
	e.def.schedule(Time(20), pr, nil)
	ran := false
	e.At(30, func() { ran = true })
	e.Run(Time(50))
	if !ran {
		t.Fatal("event after the stale wakeup never ran")
	}
}

func TestRunAllSelfReschedulingFnEvents(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	n := 0
	var last Time
	var tick func()
	tick = func() {
		n++
		last = e.Now()
		if n < 100 {
			e.After(3, tick)
		}
	}
	e.After(3, tick)
	e.RunAll()
	if n != 100 {
		t.Fatalf("fn chain ran %d times, want 100", n)
	}
	if last != Time(300) {
		t.Fatalf("last tick at %v, want 300", last)
	}
}

// TestActiveBucketReclaimsRetiredPrefix: a peek activates the next non-empty
// bucket while the clock is still short of it, and until the clock catches up
// every event is inserted into — and retired from — that one bucket. Its array
// must stay the size of what is pending at once (here four events), not grow
// to the number retired in the gap, and (t, seq) order must survive the moves.
func TestActiveBucketReclaimsRetiredPrefix(t *testing.T) {
	var q calQueue
	var seq uint64
	push := func(at Time) {
		seq++
		q.push(event{t: at, seq: seq})
	}
	const far = Time(10_000)
	push(far)
	if at, ok := q.peek(); !ok || at != far {
		t.Fatalf("peek = %v, %v, want %v", at, ok, far)
	}
	for at := Time(0); at < 3; at++ {
		push(at)
	}
	for now := Time(0); now < far; now++ {
		ev, ok := q.pop(far)
		if !ok || ev.t != now {
			t.Fatalf("pop = %v, %v, want the event at %v", ev.t, ok, now)
		}
		if now+3 < far {
			push(now + 3)
		}
	}
	if ev, ok := q.pop(far); !ok || ev.t != far || ev.seq != 1 {
		t.Fatalf("last pop = %+v, %v, want the far event", ev, ok)
	}
	if !q.empty() {
		t.Fatal("queue not empty after the far event")
	}
	if c := cap(q.buckets[int64(far)>>cqBucketBits&cqMask]); c > 16 {
		t.Fatalf("bucket array holds %d events after retiring %d with 4 pending at once", c, far)
	}
}

// TestSteadyStateSchedulingAllocFree pins the tentpole property: once the
// calendar queue's buckets and the FIFO rings are warm, retiring timer (fn)
// events, process sleeps, queue hand-offs and resource grants allocates
// nothing — including two procs in Sleep lockstep, where every Sleep is a real
// coroutine switch out and another back in, a SleepEvery napper whose ticks
// the driver takes, and every Queue and Resource path (goSyncTraffic). Every
// ring's capacity after ten times the warm-up window must equal its capacity
// after the window: a FIFO that only reclaims its consumed prefix when it
// drains passes a short run and fails this, because the contended resource's
// waiter list never drains.
func TestSteadyStateSchedulingAllocFree(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var tick func()
	tick = func() { e.After(7, tick) }
	e.After(7, tick)
	e.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(5)
		}
	})
	goLockstep(e)
	e.Go("napper", func(p *Proc) {
		n := 0
		done := func() bool { n++; return n%4 == 0 }
		for {
			p.SleepEvery(3, done)
		}
	})
	ringCaps := goSyncTraffic(e)
	const window = 100_000
	e.Run(Time(window)) // warm buckets, rings and goroutine stacks
	warm := ringCaps()
	allocs := testing.AllocsPerRun(20, func() {
		e.Run(e.Now().Add(window / 2))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per 50us window, want 0", allocs)
	}
	if e.Now() < Time(10*window) {
		t.Fatalf("ran to %v, want at least 10x the %dns warm-up window", e.Now(), window)
	}
	for i, c := range ringCaps() {
		if c != warm[i] {
			t.Fatalf("ring %d: capacity %d after the warm-up window, %d after 10x: a FIFO is not reclaiming its consumed prefix",
				i, warm[i], c)
		}
	}
}

// goSyncTraffic starts steady traffic over every path of sync.go: a Queue
// ping-pong pair (Put waking the one parked getter), a burst Put into four
// parked getters (three direct wake-ups and the one Get propagates), a TryGet
// consumer fed from scheduler context, and a capacity-1 Resource contended by
// three Use processes and two TimedUse timers, whose waiter list therefore
// never reaches empty. The returned function reads every ring's capacity.
func goSyncTraffic(e *Env) (ringCaps func() []int) {
	ping, pong := NewQueue[int](e), NewQueue[int](e)
	e.Go("ping", func(p *Proc) {
		for v := 0; ; v++ {
			ping.Put(v)
			pong.Get(p)
			p.Sleep(20)
		}
	})
	e.Go("pong", func(p *Proc) {
		for {
			pong.Put(ping.Get(p))
		}
	})

	burst := NewQueue[int](e)
	for i := 0; i < 4; i++ {
		e.Go("getter", func(p *Proc) {
			for {
				burst.Get(p)
				p.Sleep(10)
			}
		})
	}
	e.Go("burster", func(p *Proc) {
		for {
			p.Sleep(110)
			for i := 0; i < 3; i++ {
				burst.Put(i)
			}
		}
	})

	polled := NewQueue[int](e)
	var feed func()
	feed = func() {
		polled.Put(1)
		e.After(30, feed)
	}
	e.After(30, feed)
	e.Go("poller", func(p *Proc) {
		for {
			p.Sleep(100)
			for ok := true; ok; {
				_, ok = polled.TryGet()
			}
		}
	})

	r := NewResource(e, 1)
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			for {
				r.Use(p, 50)
			}
		})
	}
	timers := make([]TimedUse, 2)
	for i := range timers {
		tu := &timers[i]
		tu.Bind()
		var again func()
		again = func() { tu.Start(r, 50, again) }
		e.After(1, again)
	}

	return func() []int {
		caps := []int{r.waiters.Cap()}
		for _, q := range []*Queue[int]{ping, pong, burst, polled} {
			caps = append(caps, q.items.Cap(), q.waiters.Cap())
		}
		return caps
	}
}

// shardedPingRing builds a 4-lane environment where every lane's process
// receives a token, burns a lane-random service time, and forwards it to the
// next lane across the window barrier. It returns the kernel digest, events
// retired, and the number of tokens each lane processed.
func shardedPingRing(t *testing.T, workers int) (uint64, uint64, [4]int) {
	t.Helper()
	e := NewEnv(9)
	e.SetSharded(workers)
	e.EnableKernelTrace()
	defer e.Close()
	const lanes = 4
	shards := make([]*Shard, lanes)
	queues := make([]*Queue[int], lanes)
	for i := range shards {
		shards[i] = e.NewShard(fmt.Sprintf("m%d", i))
		queues[i] = NewQueueOn[int](shards[i])
	}
	e.ObserveLinkFloor(300)
	var hops [4]int
	for i := range shards {
		i := i
		sh := shards[i]
		sh.Go("node", func(p *Proc) {
			for {
				v := queues[i].Get(p)
				hops[i]++
				p.Sleep(Duration(50 + p.Rand().Intn(100)))
				next := (i + 1) % lanes
				nq := queues[next]
				sh.SendAfter(shards[next], Duration(300+p.Rand().Intn(50)), func() {
					nq.Put(v + 1)
				})
			}
		})
	}
	for i := range queues {
		queues[i].Put(0)
	}
	e.Run(Time(500_000))
	return e.KernelDigest(), e.EventsRetired(), hops
}

// TestShardedDeterministicAcrossWorkers is the kernel-level cross-kernel
// equivalence check: the same seeded sharded workload must retire a
// byte-identical event sequence whether its windows run on 1 worker or 4
// (run under -race in CI, so cross-lane handoffs are also checked for
// memory-model violations).
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	d1, n1, h1 := shardedPingRing(t, 1)
	d4, n4, h4 := shardedPingRing(t, 4)
	d4b, n4b, _ := shardedPingRing(t, 4)
	// Every lane parks its proc (on the queue, then in Sleep) once per hop,
	// so over the run's windows each coroutine is resumed by whichever of the
	// four workers claimed its lane that window.
	for i, h := range h1 {
		if n1 == 0 || h == 0 {
			t.Fatalf("ring never circulated through lane %d: hops %v", i, h1)
		}
	}
	if d1 != d4 || n1 != n4 || h1 != h4 {
		t.Fatalf("1 worker vs 4 diverged: digest %016x/%016x events %d/%d hops %v/%v",
			d1, d4, n1, n4, h1, h4)
	}
	if d4 != d4b || n4 != n4b {
		t.Fatalf("4-worker replay diverged: digest %016x/%016x events %d/%d", d4, d4b, n4, n4b)
	}
}

// BenchmarkSimSteadyState measures the flattened kernel's steady-state
// event-retire cost over a mixed fn-timer + sleeping-process load.
func BenchmarkSimSteadyState(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	var tick func()
	tick = func() { e.After(7, tick) }
	e.After(7, tick)
	e.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(5)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Time(int64(b.N) * 7))
}
