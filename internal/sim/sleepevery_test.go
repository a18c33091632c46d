package sim

// SleepEvery against its definition: the same seeded scenario run once with
// the literal Sleep loop and once with SleepEvery must retire the same
// events — count and (t, seq) digest — and wake every napper after the same
// number of naps at the same instant, on the serial kernel and on the
// sharded one.

import (
	"fmt"
	"strings"
	"testing"
)

// napFn is one of the two forms under comparison.
type napFn func(p *Proc, d Duration, done func() bool) int

func napLoop(p *Proc, d Duration, done func() bool) int {
	for n := 1; ; n++ {
		p.Sleep(d)
		if done() {
			return n
		}
	}
}

func napEvery(p *Proc, d Duration, done func() bool) int { return p.SleepEvery(d, done) }

// napLog is one napper's record: naps taken and wake instant of every wait.
type napLog struct{ b strings.Builder }

func (l *napLog) woke(n int, at Time) { fmt.Fprintf(&l.b, " %d@%d", n, int64(at)) }

// A napCase builds its processes and fn events on the two shards it is given
// (both the default shard on the serial kernel) and returns the nappers' logs.
type napCase struct {
	name  string
	until Time
	build func(a, b *Shard, nap napFn) []*napLog
}

var napCases = []napCase{
	{
		// Nothing else is ever pending: on the serial kernel every nap is
		// taken by sleepFast and no event retires at all.
		name: "lone", until: 5_000,
		build: func(a, _ *Shard, nap napFn) []*napLog {
			log := &napLog{}
			a.Go("lone", func(p *Proc) {
				for target := 1; ; target = target%9 + 1 {
					cnt := 0
					n := nap(p, 7, func() bool { cnt++; return cnt == target })
					log.woke(n, p.Now())
				}
			})
			return []*napLog{log}
		},
	},
	{
		// Many nappers per lane with coprime periods, predicates that count
		// to lane-random targets or are flipped by fn events — a lane-local
		// timer chain and cross-lane sends — and a plain Sleep between waits.
		name: "interleaved", until: 40_000,
		build: func(a, b *Shard, nap napFn) []*napLog {
			shards := [2]*Shard{a, b}
			periods := []Duration{1, 3, 5, 7, 11, 13, 2, 300}
			logs := make([]*napLog, len(periods))
			flags := make([]bool, len(periods)) // flags[i] belongs to napper i's lane
			for i, d := range periods {
				i, d := i, d
				logs[i] = &napLog{}
				shards[i%2].Go(fmt.Sprintf("napper%d", i), func(p *Proc) {
					for {
						target, cnt := 1+p.Rand().Intn(20), 0
						n := nap(p, d, func() bool { cnt++; return cnt >= target || flags[i] })
						logs[i].woke(n, p.Now())
						flags[i] = false
						p.Sleep(Duration(p.Rand().Intn(9)))
					}
				})
			}
			for s, sh := range shards {
				s, sh := s, sh
				other := shards[1-s]
				ticks := 0
				var tick func()
				tick = func() {
					ticks++
					flags[2*(ticks%4)+s] = ticks%3 == 0 // one of this lane's nappers
					if ticks%50 == 0 {
						k := 2*(ticks/50%4) + 1 - s // one of the other lane's
						sh.SendAfter(other, Duration(300+ticks%40), func() { flags[k] = true })
					}
					sh.After(4, tick)
				}
				sh.After(4, tick)
			}
			return logs
		},
	},
	{
		// d = 0: every nap only yields to what is already due at this
		// instant; two such nappers and a Sleep(0) spinner share each one.
		name: "zero", until: 600,
		build: func(a, _ *Shard, nap napFn) []*napLog {
			logs := []*napLog{{}, {}}
			for i, log := range logs {
				i, log := i, log
				a.Go("zero", func(p *Proc) {
					for {
						cnt := 0
						n := nap(p, 0, func() bool { cnt++; return cnt == 3+i })
						log.woke(n, p.Now())
						p.Sleep(Duration(5 + i))
					}
				})
			}
			a.Go("spinner", func(p *Proc) {
				for i := 0; ; i++ {
					p.Sleep(Duration(i % 2))
				}
			})
			return logs
		},
	},
	tieCase(true),
	tieCase(false),
}

// tieCase has an fn event flip the predicate at t=30, the very instant of a
// d=10 napper's third tick. Scheduled up front, the flip precedes that tick
// in (t, seq) order — the tick's seq is drawn when its predecessor at t=20
// retires — and the third nap sees it; scheduled at t=25, after the
// predecessor, it follows the tick, and the fourth nap is the first to see it.
func tieCase(flipFirst bool) napCase {
	name := "tie-flip-after-tick"
	if flipFirst {
		name = "tie-flip-before-tick"
	}
	return napCase{name: name, until: 100, build: func(a, _ *Shard, nap napFn) []*napLog {
		log := &napLog{}
		flag := false
		flip := func() { flag = true }
		if flipFirst {
			a.At(30, flip)
		} else {
			a.At(25, func() { a.At(30, flip) })
		}
		a.Go("napper", func(p *Proc) {
			n := nap(p, 10, func() bool { return flag })
			log.woke(n, p.Now())
		})
		return []*napLog{log}
	}}
}

// runNapCase runs c with the given form on the serial or the sharded kernel
// and renders everything the two forms must agree on.
func runNapCase(c napCase, sharded bool, nap napFn) string {
	e := NewEnv(7)
	if sharded {
		e.SetSharded(1)
	}
	e.EnableKernelTrace()
	defer e.Close()
	a, b := e.NewShard("a"), e.NewShard("b")
	e.ObserveLinkFloor(300)
	logs := c.build(a, b, nap)
	e.Run(c.until)
	var out strings.Builder
	fmt.Fprintf(&out, "events=%d digest=%016x", e.EventsRetired(), e.KernelDigest())
	for i, l := range logs {
		fmt.Fprintf(&out, "\nnapper%d:%s", i, l.b.String())
	}
	return out.String()
}

func TestSleepEveryMatchesSleepLoop(t *testing.T) {
	for _, c := range napCases {
		for _, sharded := range []bool{false, true} {
			kernel := "serial"
			if sharded {
				kernel = "sharded-1"
			}
			t.Run(c.name+"/"+kernel, func(t *testing.T) {
				loop, every := runNapCase(c, sharded, napLoop), runNapCase(c, sharded, napEvery)
				if loop != every {
					t.Fatalf("SleepEvery diverged from the Sleep loop:\nloop:  %s\nevery: %s", loop, every)
				}
				if !strings.Contains(every, "@") {
					t.Fatalf("no napper ever woke: %s", every)
				}
				switch c.name {
				case "lone":
					if !sharded && !strings.HasPrefix(every, "events=1 ") {
						t.Fatalf("a lone napper retired more than its start event: %s", every)
					}
				case "tie-flip-before-tick":
					if !strings.HasSuffix(every, "napper0: 3@30") {
						t.Fatalf("flip ahead of the tick at t=30 not seen by it: %s", every)
					}
				case "tie-flip-after-tick":
					if !strings.HasSuffix(every, "napper0: 4@40") {
						t.Fatalf("flip behind the tick at t=30 seen before t=40: %s", every)
					}
				}
			})
		}
	}
}

// TestSleepEveryDonePanicSurfacesFromRun: a panic in the predicate reaches
// Run's caller with its own value whether the nap was a tick the driver took
// (another process keeps the queue busy) or an event-free one taken in the
// process, and the lane runs on.
func TestSleepEveryDonePanicSurfacesFromRun(t *testing.T) {
	for _, busy := range []bool{true, false} {
		t.Run(fmt.Sprintf("busy=%v", busy), func(t *testing.T) {
			before := goroutinesAtRest()
			e := NewEnv(1)
			boom := fmt.Errorf("boom")
			unwound := false
			e.Go("napper", func(p *Proc) {
				defer func() { unwound = true }()
				n := 0
				p.SleepEvery(10, func() bool {
					if n++; n == 3 {
						panic(boom)
					}
					return false
				})
			})
			survivor := 0
			if busy {
				e.Go("survivor", func(p *Proc) {
					for {
						p.Sleep(5)
						survivor++
					}
				})
			}
			func() {
				defer func() {
					if r := recover(); r != boom {
						t.Fatalf("Run panicked with %v, want the predicate's own value %v", r, boom)
					}
				}()
				e.Run(Time(100))
				t.Fatal("Run returned although the predicate panicked")
			}()
			if now := e.def.now; now != 30 {
				t.Fatalf("panic surfaced at t=%v, want the third nap's instant 30", now)
			}
			e.Run(Time(100))
			if busy && survivor != 20 {
				t.Fatalf("survivor ticked %d times by t=100, want 20", survivor)
			}
			e.Close()
			if !unwound {
				t.Fatal("the napper's deferred function never ran")
			}
			if n := goroutinesAtRest(); n != before {
				t.Fatalf("%d goroutines after Close, %d before NewEnv", n, before)
			}
		})
	}
}
