package shard

import (
	"errors"
	"testing"

	"rfp/internal/core"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestSteadyStatePostPollAllocFree is the sharded client's allocation
// floor: one thread keeps 16 GETs and equal-size PUT overwrites in flight
// over depth-8 rings on 2 servers × 2 partitions, all in one group, and a
// warmed-up window retires without a heap allocation — routing, PostOp's
// encode, the routing of the group's completions and PollOp's decode included.
func TestSteadyStatePostPollAllocFree(t *testing.T) {
	const window = 16
	r := newRig(t, 2, pipelined())
	sc, err := New(r.cl.Clients[0], r.servers, true)
	if err != nil {
		t.Fatal(err)
	}
	r.start()
	ops := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		scratch := make([]byte, shardTestValue)
		var inflight sim.Ring[PendingOp]
		pollHead := func() bool {
			if _, err := sc.PollOp(p, inflight.Pop(), scratch); err != nil {
				t.Errorf("poll: %v", err)
				return false
			}
			ops++
			return true
		}
		for i := uint64(0); ; i++ {
			op := workload.Op{Kind: workload.Get, Key: i * 7 % shardTestKeys}
			if i%4 == 3 {
				op.Kind, op.ValueSize = workload.Put, shardTestValue
			}
			for {
				pd, err := sc.PostOp(p, op)
				if errors.Is(err, core.ErrRingFull) {
					if !pollHead() {
						return
					}
					continue
				}
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				inflight.Push(pd)
				break
			}
			if inflight.Len() >= window && !pollHead() {
				return
			}
		}
	})
	// The calendar's 256 bucket arrays each grow to their own deepest fill;
	// warm them as the other layers' floors do.
	r.env.Run(sim.Time(40 * sim.Millisecond))
	before := ops
	allocs := testing.AllocsPerRun(10, func() {
		r.env.Run(r.env.Now().Add(200 * sim.Microsecond))
	})
	if ops-before < 100 {
		t.Fatalf("only %d operations completed in the measured windows", ops-before)
	}
	if allocs != 0 {
		t.Fatalf("steady-state PostOp/PollOp allocate %.1f objects per 200us window, want 0", allocs)
	}
}
