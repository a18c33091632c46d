package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var at Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		at = p.Now()
	})
	e.RunAll()
	if at != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5us", at)
	}
}

func TestSleepZeroYields(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.RunAll()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	ran := false
	e.Go("late", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		ran = true
	})
	end := e.Run(Time(10 * Microsecond))
	if end != Time(10*Microsecond) {
		t.Fatalf("Run returned %v, want 10us", end)
	}
	if ran {
		t.Fatal("event beyond horizon executed")
	}
	e.RunAll()
	if !ran {
		t.Fatal("event not executed by RunAll")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := NewEnv(42)
		defer e.Close()
		var trace []int
		for i := 0; i < 8; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(Duration(e.Rand().Intn(100)) * Nanosecond)
					trace = append(trace, i)
				}
			})
		}
		e.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 32 {
		t.Fatalf("trace lengths %d, %d; want 32", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(10)
			order = append(order, i)
		})
	}
	e.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant wakeups out of spawn order: %v", order)
		}
	}
}

func TestResourceSerializesHolders(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	r := NewResource(e, 1)
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("u", func(p *Proc) {
			r.Use(p, 10*Nanosecond)
			done = append(done, p.Now())
		})
	}
	e.RunAll()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	r := NewResource(e, 2)
	var done []Time
	for i := 0; i < 4; i++ {
		e.Go("u", func(p *Proc) {
			r.Use(p, 10*Nanosecond)
			done = append(done, p.Now())
		})
	}
	e.RunAll()
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(3)
			order = append(order, i)
			r.Release()
		})
	}
	e.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("service order %v, want FIFO", order)
		}
	}
}

func TestResourceUtilizationAccounting(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	r := NewResource(e, 1)
	e.Go("u", func(p *Proc) {
		r.Use(p, 40*Nanosecond)
		p.Sleep(60 * Nanosecond)
		r.Use(p, 20*Nanosecond)
	})
	e.RunAll()
	r.account()
	if r.Busy != 60*Nanosecond {
		t.Fatalf("Busy = %v, want 60ns", r.Busy)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release()
}

func TestQueuePutGet(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(5)
			q.Put(i)
		}
	})
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("got %v, want 0,1,2", got)
		}
	}
}

func TestQueueBurstWakesMultipleGetters(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	q := NewQueue[int](e)
	got := 0
	for i := 0; i < 3; i++ {
		e.Go("c", func(p *Proc) {
			q.Get(p)
			got++
		})
	}
	e.Go("p", func(p *Proc) {
		p.Sleep(5)
		q.Put(1)
		q.Put(2)
		q.Put(3)
	})
	e.RunAll()
	if got != 3 {
		t.Fatalf("got = %d, want 3", got)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	q := NewQueue[string](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put("x")
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q, %v", v, ok)
	}
}

func TestCloseUnwindsParkedProcesses(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	r := NewResource(e, 1)
	for i := 0; i < 4; i++ {
		e.Go("waiter", func(p *Proc) { q.Get(p) })
	}
	e.Go("holder", func(p *Proc) { r.Acquire(p); p.Sleep(Duration(1 << 40)) })
	e.Go("blocked", func(p *Proc) { r.Acquire(p) })
	e.Run(Time(100))
	e.Close()
	e.Close() // idempotent
	if len(e.def.procs) != 0 {
		t.Fatalf("%d processes leaked past Close", len(e.def.procs))
	}
}

func TestAfterCallback(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var at Time
	e.After(33*Nanosecond, func() { at = e.Now() })
	e.RunAll()
	if at != 33 {
		t.Fatalf("callback at %v, want 33ns", at)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(1000)
	if t0.Add(500) != 1500 {
		t.Fatal("Add")
	}
	if Time(1500).Sub(t0) != 500 {
		t.Fatal("Sub")
	}
	if Micros(1.5) != 1500*Nanosecond {
		t.Fatal("Micros")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds")
	}
}

// Property: the event heap dequeues in nondecreasing (t, seq) order for any
// insertion sequence.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(times []int16) bool {
		var h eventHeap
		for i, v := range times {
			tt := Time(v)
			if tt < 0 {
				tt = -tt
			}
			h.push(event{t: tt, seq: uint64(i)})
		}
		var prevT Time = -1
		var prevSeq uint64
		for len(h) > 0 {
			ev := h.pop()
			if ev.t < prevT || (ev.t == prevT && ev.seq < prevSeq) {
				return false
			}
			prevT, prevSeq = ev.t, ev.seq
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with a capacity-1 resource and n jobs of the given service
// times, the last completion equals the sum of service times (work
// conservation) regardless of arrival pattern at time zero.
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		e := NewEnv(7)
		defer e.Close()
		r := NewResource(e, 1)
		var last Time
		var total Duration
		for _, s := range raw {
			d := Duration(s) + 1
			total += d
			e.Go("job", func(p *Proc) {
				r.Use(p, d)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.RunAll()
		return last == Time(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGoFromWithinProcess(t *testing.T) {
	// Processes may spawn further processes; the child starts at the
	// current virtual time.
	e := NewEnv(1)
	defer e.Close()
	var childAt Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(100)
		e.Go("child", func(c *Proc) {
			childAt = c.Now()
		})
		p.Sleep(100)
	})
	e.RunAll()
	if childAt != 100 {
		t.Fatalf("child started at %v, want 100", childAt)
	}
}

func TestCloseWhileHoldingResource(t *testing.T) {
	// Close must unwind a process that is parked inside Resource.Use
	// (holding the slot) without corrupting anything.
	e := NewEnv(1)
	r := NewResource(e, 1)
	e.Go("holder", func(p *Proc) {
		r.Use(p, Duration(1<<40))
	})
	e.Go("waiter", func(p *Proc) {
		r.Acquire(p)
	})
	e.Run(Time(10))
	e.Close()
}

func TestRunAfterTimeHorizonResumesWork(t *testing.T) {
	// Run(h1) then Run(h2) must continue seamlessly.
	e := NewEnv(1)
	defer e.Close()
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(10)
			ticks++
		}
	})
	e.Run(Time(100))
	first := ticks
	e.Run(Time(200))
	if first != 10 || ticks != 20 {
		t.Fatalf("ticks = %d then %d, want 10 then 20", first, ticks)
	}
}

// TestRunIntoThePastKeepsClock: a Run bound behind the clock runs nothing
// and moves nothing, on either kernel — the clock only moves forward.
func TestRunIntoThePastKeepsClock(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		e := NewEnv(1)
		if sharded {
			e.SetSharded(1)
			e.NewShard("m")
			e.ObserveLinkFloor(300)
		}
		e.Run(1000)
		if got := e.Run(500); got != 1000 || e.Now() != 1000 {
			t.Errorf("sharded=%v: Run(500) after Run(1000) returned %v with Now %v, want 1000 for both",
				sharded, got, e.Now())
		}
		e.Close()
	}
}

func TestSleepUntilPast(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var at Time
	e.Go("p", func(p *Proc) {
		p.Sleep(100)
		p.SleepUntil(50) // already passed: clamp to now
		at = p.Now()
	})
	e.RunAll()
	if at != 100 {
		t.Fatalf("SleepUntil(past) advanced the clock to %v", at)
	}
}
