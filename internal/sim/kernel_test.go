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

// TestSteadyStateSchedulingAllocFree pins the tentpole property: once the
// calendar queue's buckets are warm, retiring timer (fn) events and
// process sleeps allocates nothing — including two procs in Sleep lockstep,
// where every Sleep is a real coroutine switch out and another back in, and
// a SleepEvery napper whose ticks the driver takes.
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
	e.Run(Time(100_000)) // warm buckets and goroutine stacks
	allocs := testing.AllocsPerRun(20, func() {
		e.Run(e.Now().Add(50_000))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per 50us window, want 0", allocs)
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
