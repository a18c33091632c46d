package rnic

import (
	"testing"

	"rfp/internal/hw"
	"rfp/internal/sim"
)

// TestSteadyStateVerbsAllocFree is the verb layer's allocation floor — the
// engine.go header's "steady-state posting allocates nothing", end to end:
// blocking Read and Write (Post + CQ.Wait on the QP's private queue), an
// asynchronous Post/CQ.Wait pipeline and a Post/CQ.Poll pipeline, each on its
// own connection of one NIC pair, retire a warmed-up window without a single
// heap allocation.
func TestSteadyStateVerbsAllocFree(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	prof := hw.ConnectX3()
	a, b := New(env, "a", prof), New(env, "b", prof)
	h := b.RegisterMemory(4096).Handle()
	connect := func() *QP {
		qp, _ := Connect(a, b)
		return qp
	}

	blocking := func(name string, verb func(qp *QP, p *sim.Proc, buf []byte) error) {
		qp := connect()
		env.Go(name, func(p *sim.Proc) {
			buf := make([]byte, 32)
			for {
				if err := verb(qp, p, buf); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		})
	}
	blocking("reader", func(qp *QP, p *sim.Proc, buf []byte) error { return qp.Read(p, h, 0, buf) })
	blocking("writer", func(qp *QP, p *sim.Proc, buf []byte) error { return qp.Write(p, h, 64, buf) })

	// pipeline keeps depth work requests posted, reaping with reap and
	// re-posting the reaped one.
	pipeline := func(name string, depth int, reap func(cq *CQ, p *sim.Proc) CQE) {
		qp, cq := connect(), NewCQ(a)
		env.Go(name, func(p *sim.Proc) {
			bufs := make([][]byte, depth)
			post := func(i int) {
				qp.Post(p, cq, WR{ID: uint64(i), Op: WROp(i % 2), Remote: h, Roff: 128 + 32*i, Local: bufs[i]})
			}
			for i := range bufs {
				bufs[i] = make([]byte, 32)
				post(i)
			}
			for {
				e := reap(cq, p)
				if e.Err != nil {
					t.Errorf("%s: %v", name, e.Err)
					return
				}
				post(int(e.ID))
			}
		})
	}
	pipeline("waiter", 4, func(cq *CQ, p *sim.Proc) CQE { return cq.Wait(p) })
	pipeline("poller", 8, func(cq *CQ, p *sim.Proc) CQE {
		for {
			if e, ok := cq.Poll(p); ok {
				return e
			}
		}
	})

	env.Run(sim.Time(sim.Millisecond)) // warm flight pools, rings, buckets
	before := a.Stats.OutOps
	allocs := testing.AllocsPerRun(10, func() {
		env.Run(env.Now().Add(100 * sim.Microsecond))
	})
	if a.Stats.OutOps-before < 1000 {
		t.Fatalf("only %d verbs issued in the measured windows", a.Stats.OutOps-before)
	}
	if allocs != 0 {
		t.Fatalf("steady-state verbs allocate %.1f objects per 100us window, want 0", allocs)
	}
}

// TestPendingWRsBoundedOnBusyQP is the regression test for a queue that grew
// for the life of a connection: a QP that always has a work request waiting
// for the initiator engine — a pipelined client, here depth request writes
// plus depth fetch reads outstanding — never drains its pending FIFO, so a
// FIFO that reclaims consumed entries only when empty keeps every work
// request ever posted. After 50k calls the ring must still be the size of the
// deepest backlog, a power of two no larger than 4 x depth.
func TestPendingWRsBoundedOnBusyQP(t *testing.T) {
	const depth, calls = 8, 50_000
	env := sim.NewEnv(1)
	defer env.Close()
	a, b, qp, _ := pair(env)
	h := b.RegisterMemory(4096).Handle()
	cq := NewCQ(a)
	done, idle := 0, 0
	env.Go("client", func(p *sim.Proc) {
		bufs := make([][]byte, 2*depth)
		post := func(i int) {
			qp.Post(p, cq, WR{ID: uint64(i), Op: WROp(i % 2), Remote: h, Roff: 32 * i, Local: bufs[i]})
			if qp.eng.pend.Len() == 1 {
				idle++ // nothing else was waiting: the FIFO had drained
			}
		}
		for i := range bufs {
			bufs[i] = make([]byte, 32)
			post(i)
		}
		for done < 2*calls {
			e, ok := cq.Poll(p)
			if !ok {
				continue
			}
			if e.Err != nil {
				t.Errorf("cqe: %v", e.Err)
				return
			}
			done++
			post(int(e.ID))
		}
	})
	env.RunAll()
	if done < 2*calls {
		t.Fatalf("%d of %d work requests completed", done, 2*calls)
	}
	if c := qp.eng.pend.Cap(); c > 4*depth {
		t.Fatalf("pending-WR ring holds %d slots after %d calls at depth %d, want at most %d", c, calls, depth, 4*depth)
	}
	// The premise: the queue (almost) never drained, so reclaiming on empty
	// would not have bounded it.
	if idle > 2*depth {
		t.Fatalf("%d of %d posts found the pending FIFO empty: the QP is not busy enough to test what this test is for", idle, done+2*depth)
	}
}
