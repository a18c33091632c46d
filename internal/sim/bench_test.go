package sim

import "testing"

// BenchmarkEventLoop measures the cost of one park/resume cycle — the
// simulator's fundamental unit of work.
func BenchmarkEventLoop(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	e.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	e.Run(Time(int64(b.N) * 10))
}

// BenchmarkProcSwitch measures one coroutine switch pair — a proc parks, the
// driver resumes the other — with two procs in Sleep lockstep, the drive
// behind the benchmark ledger's sim.iso.proc_switch_ns. One op is one Sleep.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	goLockstep(e)
	e.Run(Time(100_000)) // start both coroutines and warm the queue's buckets
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(e.Now().Add(Duration(b.N / 2)))
}

// goLockstep spawns two procs sleeping 1 ns at a time: each is always due
// when the other sleeps, so every Sleep parks one and resumes the other (a
// lone sleeper mostly takes the sleepFast path and never parks).
func goLockstep(e *Env) {
	for i := 0; i < 2; i++ {
		e.Go("lockstep", func(p *Proc) {
			for {
				p.Sleep(1)
			}
		})
	}
}

// BenchmarkSleepEvery measures one nap that finds its predicate false: two
// procs in SleepEvery lockstep, each one's tick always pending when the other
// naps, so no nap is elided by sleepFast — BenchmarkProcSwitch's drive with
// the wake-ups taken by the lane driver. One op is one nap.
func BenchmarkSleepEvery(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	never := func() bool { return false }
	for i := 0; i < 2; i++ {
		e.Go("napper", func(p *Proc) { p.SleepEvery(1, never) })
	}
	e.Run(Time(100_000))
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(e.Now().Add(Duration(b.N / 2)))
}

// BenchmarkResourceUse measures a contended resource handoff per
// operation.
func BenchmarkResourceUse(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	r := NewResource(e, 1)
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			for {
				r.Use(p, 5)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Time(int64(b.N) * 5))
}

// BenchmarkQueuePingPong measures producer/consumer message passing.
func BenchmarkQueuePingPong(b *testing.B) {
	e := NewEnv(1)
	defer e.Close()
	q := NewQueue[int](e)
	e.Go("consumer", func(p *Proc) {
		for {
			_ = q.Get(p)
		}
	})
	e.Go("producer", func(p *Proc) {
		for {
			q.Put(1)
			p.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Time(int64(b.N) * 10))
}
