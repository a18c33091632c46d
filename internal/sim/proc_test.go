package sim

// Process lifecycle on the coroutine kernel: what ends a process body
// abnormally lands on the goroutine driving its lane, and Close leaves no
// coroutine behind.

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	boom := fmt.Errorf("boom")
	survivor := 0
	e.Go("survivor", func(p *Proc) {
		for {
			p.Sleep(10)
			survivor++
		}
	})
	e.Go("bad", func(p *Proc) {
		p.Sleep(25)
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run panicked with %v, want the proc's own value %v", r, boom)
			}
		}()
		e.Run(Time(100))
		t.Fatal("Run returned although a proc panicked")
	}()
	if survivor != 2 {
		t.Fatalf("survivor ticked %d times before the panic at t=25, want 2", survivor)
	}
	// The lane is not wedged: the panicked proc is gone, the rest run on.
	e.Run(Time(100))
	if survivor != 10 {
		t.Fatalf("survivor ticked %d times by t=100, want 10", survivor)
	}
	if n := len(e.def.procs); n != 1 {
		t.Fatalf("%d procs registered after the panic, want 1", n)
	}
}

// TestProcGoexitEndsRunCaller: runtime.Goexit inside a proc (what t.FailNow
// and t.Fatal do) ends the goroutine that called Run, running the proc's and
// the caller's deferred functions, and leaves the lane usable.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(10)
			ticks++
		}
	})
	procDeferRan := false
	e.Go("quitter", func(p *Proc) {
		defer func() { procDeferRan = true }()
		p.Sleep(25)
		runtime.Goexit()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e.Run(Time(100))
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned normally although a proc called Goexit")
	}
	if !procDeferRan {
		t.Fatal("the exiting proc's deferred function did not run")
	}
	e.Run(Time(100))
	if ticks != 10 {
		t.Fatalf("ticker ticked %d times by t=100, want 10", ticks)
	}
}

// goroutinesBackTo waits for the goroutine count to fall back to before —
// goroutines on their way out (an unwound coroutine, an earlier test's
// helper) exit asynchronously, later under load — and fails with both
// counts if it is still above before after a few seconds: a leak.
func goroutinesBackTo(t *testing.T, before int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines after Close, %d before NewEnv", n, before)
	}
}

// closeModes runs body on the serial kernel and on the sharded one, handing
// it two shards to home processes on (both the default shard on the serial
// kernel), and checks that Close gives back every goroutine. A body that has
// something to check after Close calls it itself first.
func closeModes(t *testing.T, body func(t *testing.T, e *Env, a, b *Shard)) {
	for _, name := range []string{"serial", "sharded-1"} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEnv(1)
			if name != "serial" {
				e.SetSharded(1)
			}
			a, b := e.NewShard("a"), e.NewShard("b")
			e.ObserveLinkFloor(300)
			body(t, e, a, b)
			e.Close()
			goroutinesBackTo(t, before)
		})
	}
}

func TestCloseUnwindsStartedProcs(t *testing.T) {
	closeModes(t, func(t *testing.T, e *Env, a, b *Shard) {
		var unwound []string
		r := NewResourceOn(a, 1)
		q := NewQueueOn[int](b)
		a.Go("sleeper", func(p *Proc) {
			defer func() { unwound = append(unwound, "sleeper") }()
			p.Sleep(Duration(1 << 40))
		})
		a.Go("holder", func(p *Proc) {
			defer func() { unwound = append(unwound, "holder") }()
			r.Use(p, Duration(1<<40))
		})
		a.Go("on-resource", func(p *Proc) {
			defer func() { unwound = append(unwound, "on-resource") }()
			r.Acquire(p)
		})
		b.Go("on-queue", func(p *Proc) {
			defer func() { unwound = append(unwound, "on-queue") }()
			q.Get(p)
		})
		naps := 0
		a.Go("napper", func(p *Proc) {
			defer func() { unwound = append(unwound, "napper") }()
			p.SleepEvery(300, func() bool { naps++; return false })
		})
		e.Run(Time(1000))
		if len(unwound) != 0 {
			t.Fatalf("procs ended before Close: %v", unwound)
		}
		if naps != 3 {
			t.Fatalf("napper took %d naps by t=1000, want 3", naps)
		}
		e.Close()
		// Lane by lane; within a lane queue-scheduled procs in (t, seq)
		// order — the napper's pending tick at t=1200 like any wake-up —
		// then the externally parked ones by id.
		want := []string{"napper", "sleeper", "holder", "on-resource", "on-queue"}
		if fmt.Sprint(unwound) != fmt.Sprint(want) {
			t.Fatalf("Close unwound %v, want %v", unwound, want)
		}
	})
}

func TestCloseNeverRunsUnstartedProc(t *testing.T) {
	closeModes(t, func(t *testing.T, e *Env, a, b *Shard) {
		ran := 0
		a.Go("unstarted", func(p *Proc) { ran++ })
		b.Go("unstarted", func(p *Proc) { ran++ })
		e.Close()
		if ran != 0 {
			t.Fatalf("a proc body that was never resumed ran %d times during Close", ran)
		}
	})
}

// TestParkDuringUnwindStaysStopped: a deferred function that parks while
// Close unwinds its process is unwound again instead of suspending a
// coroutine nobody will resume.
func TestParkDuringUnwindStaysStopped(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	reached, after := false, false
	e.Go("stubborn", func(p *Proc) {
		defer func() {
			reached = true
			p.Sleep(10)
			after = true
		}()
		p.Sleep(Duration(1 << 40))
	})
	e.Run(Time(100))
	e.Close()
	if !reached || after {
		t.Fatalf("deferred park: reached=%v, ran past the park=%v; want true, false", reached, after)
	}
	goroutinesBackTo(t, before)
}
