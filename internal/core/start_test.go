package core

import (
	"errors"
	"testing"

	"rfp/internal/sim"
)

// startRig accepts n connections from one client machine and calls Start
// with threads serve loops. Each loop answers with its thread number and
// records, per connection id, the thread that served it; built lists the
// threads whose handler Start asked for, in order.
func startRig(t *testing.T, n, threads int) (r *testRig, clis []*Client, served map[int]int, built *[]int) {
	r = newRig(t, 1, ServerConfig{})
	r.srv.AddThreads(threads)
	for i := 0; i < n; i++ {
		cli, _ := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
		clis = append(clis, cli)
	}
	served = map[int]int{}
	built = new([]int)
	r.srv.Start(threads, func(thread int) Handler {
		*built = append(*built, thread)
		return func(p *sim.Proc, c *Conn, req, resp []byte) int {
			if prev, ok := served[c.ID()]; ok && prev != thread {
				t.Errorf("conn %d served by threads %d and %d", c.ID(), prev, thread)
			}
			served[c.ID()] = thread
			resp[0] = byte(thread)
			return 1
		}
	})
	return r, clis, served, built
}

func TestStartServesAcceptIndexModThreads(t *testing.T) {
	r, clis, served, built := startRig(t, 7, 3)
	for i, cli := range clis {
		r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
			out := make([]byte, 8)
			for k := 0; k < 3; k++ {
				n, err := cli.Call(p, []byte{byte(i)}, out)
				if err != nil || n != 1 || int(out[0]) != i%3 {
					t.Errorf("client %d call %d: %d B (thread %d), err %v; want thread %d", i, k, n, out[0], err, i%3)
				}
			}
		})
	}
	r.env.Run(sim.Time(sim.Millisecond))
	if len(served) != 7 {
		t.Fatalf("%d of 7 connections served", len(served))
	}
	for id, thread := range served {
		if thread != id%3 {
			t.Errorf("conn %d served by thread %d, want %d", id, thread, id%3)
		}
	}
	if len(*built) != 3 {
		t.Errorf("handlers built for threads %v, want [0 1 2]", *built)
	}
}

// A thread with no connection gets no handler and no loop (a Serve over no
// connections would panic the run).
func TestStartSkipsThreadsWithoutConnections(t *testing.T) {
	r, clis, served, built := startRig(t, 2, 4)
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 8)
		for _, cli := range clis {
			if _, err := cli.Call(p, []byte{1}, out); err != nil {
				t.Error(err)
			}
		}
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if len(*built) != 2 || (*built)[0] != 0 || (*built)[1] != 1 {
		t.Fatalf("handlers built for threads %v, want [0 1]", *built)
	}
	if served[0] != 0 || served[1] != 1 {
		t.Fatalf("served = %v, want conn i on thread i", served)
	}
}

func TestStartTwicePanics(t *testing.T) {
	r, _, _, _ := startRig(t, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	r.srv.Start(1, func(int) Handler { return echoHandler })
}

func TestAcceptAfterStart(t *testing.T) {
	r, _, _, _ := startRig(t, 1, 1)
	if _, _, err := r.srv.TryAccept(r.cluster.Clients[0], DefaultParams()); !errors.Is(err, ErrStarted) {
		t.Fatalf("TryAccept after Start: err %v, want ErrStarted", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Accept after Start did not panic")
		}
	}()
	r.srv.Accept(r.cluster.Clients[0], DefaultParams())
}
