package shard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/kvstore/jakiro"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

const (
	shardTestKeys  = 256
	shardTestValue = 32
	shardMaxValue  = 64
)

type rig struct {
	env     *sim.Env
	cl      *fabric.Cluster
	servers []*jakiro.Server
}

// newRig builds n two-thread Jakiro servers whose connections use params
// and preloads every key to its owning server. Tests call start after
// connecting their clients (Jakiro accepts no connections once the serve
// loops run).
func newRig(t *testing.T, n int, params core.Params) *rig {
	t.Helper()
	env := sim.NewEnv(21)
	t.Cleanup(env.Close)
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	cfg := jakiro.Config{Threads: 2, SpikeProb: -1, MaxValue: shardMaxValue, Params: params}
	servers := make([]*jakiro.Server, n)
	for i := range servers {
		m := cl.Server
		if i > 0 {
			m = fabric.NewMachine(env, fmt.Sprintf("server%d", i), hw.ConnectX3())
		}
		servers[i] = jakiro.NewServer(m, cfg)
	}
	kbuf := make([]byte, workload.KeySize)
	val := make([]byte, shardTestValue)
	for k := uint64(0); k < shardTestKeys; k++ {
		key := workload.EncodeKey(kbuf, k)
		workload.FillValue(val, k, 0)
		srv := servers[For(key, n)]
		srv.Partition(kv.PartitionFor(key, cfg.Threads)).Put(key, val)
	}
	return &rig{env: env, cl: cl, servers: servers}
}

// pipelined is the connection setup of the group path: depth-8 rings, as
// in ext-scaleout.
func pipelined() core.Params {
	params := core.DefaultParams()
	params.Depth = 8
	return params
}

func (r *rig) start() {
	for _, srv := range r.servers {
		srv.Start()
	}
}

// opsSpanningServers picks perServer GETs and perServer PUTs on distinct
// keys owned by each server.
func opsSpanningServers(sc *Client, perServer int) []workload.Op {
	counts := make([]int, sc.NumServers())
	var ops []workload.Op
	for k := uint64(0); k < shardTestKeys; k++ {
		s := sc.ServerFor(k)
		if counts[s] == 2*perServer {
			continue
		}
		op := workload.Op{Kind: workload.Get, Key: k}
		if counts[s]%2 == 1 {
			op.Kind, op.ValueSize = workload.Put, shardTestValue
		}
		counts[s]++
		ops = append(ops, op)
	}
	return ops
}

// posted is one op's post: its handle, or the error that was its outcome.
type posted struct {
	pd  PendingOp
	err error
	at  sim.Time
}

// postAll posts every op before any is polled, so the ops of every server
// are in flight through the one group at once.
func postAll(p *sim.Proc, sc *Client, ops []workload.Op) []posted {
	out := make([]posted, len(ops))
	for i, op := range ops {
		out[i].at = p.Now()
		out[i].pd, out[i].err = sc.PostOp(p, op)
	}
	return out
}

// outcome is one op's result: its error, and how long after its post it
// resolved.
type outcome struct {
	err  error
	took sim.Duration
}

// pollAll claims the posted ops in post order. Every op that succeeds is
// checked: a GET read its key's preloaded value, a PUT stored.
func pollAll(t *testing.T, p *sim.Proc, sc *Client, ops []workload.Op, posts []posted) []outcome {
	t.Helper()
	out := make([]outcome, len(ops))
	got, want := make([]byte, shardTestValue), make([]byte, shardTestValue)
	for i, op := range ops {
		if out[i].err = posts[i].err; out[i].err == nil {
			clear(got)
			var ok bool
			ok, out[i].err = sc.PollOp(p, posts[i].pd, got)
			workload.FillValue(want, op.Key, 0)
			if out[i].err == nil && (!ok || op.Kind == workload.Get && !bytes.Equal(got, want)) {
				t.Errorf("%v of key %d: ok=%v value %x", op.Kind, op.Key, ok, got)
			}
		}
		out[i].took = p.Now().Sub(posts[i].at)
	}
	return out
}

// TestShardPostPollSpansServers checks the pipelined fan-out end to end:
// GETs and PUTs posted to every server through one group, before any is
// polled, all complete with the right values. A PUT over MaxValue fails at
// its post.
func TestShardPostPollSpansServers(t *testing.T) {
	r := newRig(t, 3, pipelined())
	sc, err := New(r.cl.Clients[0], r.servers, true)
	if err != nil {
		t.Fatal(err)
	}
	r.start()
	ok := false
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if _, err := sc.PostOp(p, workload.Op{Kind: workload.Put, Key: 1, ValueSize: shardMaxValue + 1}); err == nil {
			t.Error("oversize PUT posted")
			return
		}
		ops := opsSpanningServers(sc, 2)
		for i, o := range pollAll(t, p, sc, ops, postAll(p, sc, ops)) {
			if o.err != nil {
				t.Errorf("%v of key %d on server %d: %v", ops[i].Kind, ops[i].Key, sc.ServerFor(ops[i].Key), o.err)
				return
			}
		}
		ok = !t.Failed()
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}

// TestShardPostPollDeadPartition closes one server's connections with its
// ops in flight and checks the failure contract: each of its ops resolves
// with ErrClosed — on the next round, at its post — while every op on the
// surviving servers still completes with its value.
func TestShardPostPollDeadPartition(t *testing.T) {
	r := newRig(t, 3, pipelined())
	sc, err := New(r.cl.Clients[0], r.servers, true)
	if err != nil {
		t.Fatal(err)
	}
	r.start()
	const dead = 1
	ok := false
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		ops := opsSpanningServers(sc, 2)
		for round := 0; round < 2; round++ {
			posts := postAll(p, sc, ops)
			if round == 0 {
				for _, cc := range sc.Server(dead).Conns() {
					if err := cc.Close(p); err != nil {
						t.Errorf("close: %v", err)
						return
					}
				}
			}
			for i, o := range pollAll(t, p, sc, ops, posts) {
				if s := sc.ServerFor(ops[i].Key); s == dead && !errors.Is(o.err, core.ErrClosed) {
					t.Errorf("round %d, key %d on the dead server: err = %v, want ErrClosed", round, ops[i].Key, o.err)
				} else if s != dead && o.err != nil {
					t.Errorf("round %d, key %d on live server %d: %v", round, ops[i].Key, s, o.err)
				}
			}
		}
		ok = !t.Failed()
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}

// TestShardRouting checks the key->server map is total, stable, and
// reasonably balanced (the decorrelated hash must not collapse shards).
func TestShardRouting(t *testing.T) {
	r := newRig(t, 3, core.Params{})
	sc, err := New(r.cl.Clients[0], r.servers, false)
	if err != nil {
		t.Fatal(err)
	}
	r.start()
	counts := make([]int, sc.NumServers())
	for k := uint64(0); k < shardTestKeys; k++ {
		s := sc.ServerFor(k)
		if s != sc.ServerFor(k) {
			t.Fatalf("unstable routing for key %d", k)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("server %d owns no keys: %v", s, counts)
		}
	}
}
