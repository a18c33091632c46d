package kv

import (
	"errors"
	"testing"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestStubDecodesStatuses runs a Stub against a server that answers each
// request with the next scripted response, and checks every outcome a store
// relies on: OK and NotFound for GET, OK for PUT, and ErrBadResponse for
// StatusError, an unknown status, an empty response, and NotFound to a PUT.
// An oversize PUT fails before anything is sent.
func TestStubDecodesStatuses(t *testing.T) {
	const maxValue = 16
	env := sim.NewEnv(1)
	defer env.Close()
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	srv := core.NewServer(cl.Server, core.ServerConfig{
		MaxRequest: 1 + workload.KeySize + maxValue, MaxResponse: 1 + maxValue,
	})
	srv.AddThreads(1)
	conn, _ := srv.Accept(cl.Clients[0], core.DefaultParams())
	script := [][]byte{
		{StatusOK, 'h', 'i'}, {StatusNotFound}, {StatusError}, {0x7f}, {},
		{StatusOK}, {StatusNotFound},
		{StatusOK, 'p', 'o'},
	}
	srv.Start(1, func(int) core.Handler {
		return func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
			if len(script) == 0 {
				t.Error("request beyond the script")
				return 0
			}
			n := copy(resp, script[0])
			script = script[1:]
			return n
		}
	})

	s := NewStub(maxValue)
	ran := false
	cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, maxValue)
		if n, found, err := s.Get(p, conn, 1, out); n != 2 || !found || err != nil || string(out[:n]) != "hi" {
			t.Errorf("GET OK: %d %q found=%v err=%v", n, out[:n], found, err)
		}
		if n, found, err := s.Get(p, conn, 2, out); n != 0 || found || err != nil {
			t.Errorf("GET NotFound: %d found=%v err=%v", n, found, err)
		}
		for _, what := range []string{"StatusError", "unknown status", "empty response"} {
			if _, _, err := s.Get(p, conn, 3, out); !errors.Is(err, ErrBadResponse) {
				t.Errorf("GET answered with %s: err %v, want ErrBadResponse", what, err)
			}
		}
		if err := s.Put(p, conn, 4, make([]byte, maxValue+1)); err == nil {
			t.Error("oversize PUT: no error")
		}
		if err := s.Put(p, conn, 4, []byte("v")); err != nil {
			t.Errorf("PUT OK: %v", err)
		}
		if err := s.Put(p, conn, 4, []byte("v")); !errors.Is(err, ErrBadResponse) {
			t.Errorf("PUT answered NotFound: err %v, want ErrBadResponse", err)
		}
		req, err := s.EncodeOp(workload.Op{Kind: workload.Get, Key: 5})
		if err != nil {
			t.Fatal(err)
		}
		h, err := conn.Post(p, req)
		if err != nil {
			t.Fatal(err)
		}
		if found, err := s.Poll(p, conn, h, out); !found || err != nil || string(out[:2]) != "po" {
			t.Errorf("posted GET: %q found=%v err=%v", out[:2], found, err)
		}
		ran = true
	})
	env.Run(sim.Time(sim.Millisecond))
	if !ran || len(script) != 0 {
		t.Fatalf("client finished=%v with %d scripted responses unsent", ran, len(script))
	}
}
