package core

import (
	"testing"

	"rfp/internal/sim"
)

// TestGroupAddRefusals: Group.Add refuses a client already in a group
// (ErrGrouped), a client on another machine (ErrGroupMachine) and a client
// with a post in flight (ErrRingBusy). A refused Add changes neither the
// group nor the client: the group keeps its members, and every refused
// client goes on completing calls through its own queue — the one with a
// post in flight included, which redeems it first.
func TestGroupAddRefusals(t *testing.T) {
	r := newRig(t, 2, ServerConfig{})
	params := DefaultParams()
	params.Depth = 2
	var conns []*Conn
	accept := func(m int) *Client {
		cli, conn := r.srv.Accept(r.cluster.Clients[m], params)
		conns = append(conns, conn)
		return cli
	}
	member, other, busy := accept(0), accept(1), accept(0)
	g, g2 := NewGroup(), NewGroup()
	if err := g.Add(member); err != nil {
		t.Fatalf("add: %v", err)
	}
	for _, gr := range []*Group{g, g2} {
		if err := gr.Add(member); err != ErrGrouped {
			t.Fatalf("adding a grouped client: err = %v, want ErrGrouped", err)
		}
	}
	if err := g.Add(other); err != ErrGroupMachine {
		t.Fatalf("adding a client of another machine: err = %v, want ErrGroupMachine", err)
	}
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) { Serve(p, conns, echoHandler) })
	calls := map[*Client]int{}
	call := func(p *sim.Proc, c *Client, req string) {
		out := make([]byte, 64)
		if n, err := c.Call(p, []byte(req), out); err != nil || string(out[:n]) != req {
			t.Errorf("%s: (%q, %v)", req, out[:n], err)
			return
		}
		calls[c]++
	}
	r.cluster.Clients[0].Spawn("cli0", func(p *sim.Proc) {
		h, err := busy.Post(p, []byte("posted"))
		if err != nil {
			t.Errorf("post: %v", err)
			return
		}
		if err := g.Add(busy); err != ErrRingBusy {
			t.Errorf("adding a client with a post in flight: err = %v, want ErrRingBusy", err)
		}
		out := make([]byte, 64)
		if n, err := busy.Poll(p, h, out); err != nil || string(out[:n]) != "posted" {
			t.Errorf("poll the refused client's post: (%q, %v)", out[:n], err)
			return
		}
		call(p, busy, "busy")
		call(p, member, "member")
	})
	r.cluster.Clients[1].Spawn("cli1", func(p *sim.Proc) { call(p, other, "other") })
	r.env.Run(sim.Time(sim.Millisecond))
	if calls[busy] != 1 || calls[member] != 1 || calls[other] != 1 {
		t.Fatalf("completed calls: busy %d, member %d, other %d; want 1 each", calls[busy], calls[member], calls[other])
	}
	if len(g.members) != 1 || g.members[0] != member || len(g2.members) != 0 {
		t.Fatalf("refusals changed the groups: %d and %d members", len(g.members), len(g2.members))
	}
	for _, c := range []*Client{other, busy} {
		if c.group != nil || c.cq == g.cq {
			t.Fatalf("a refused client joined the group")
		}
	}
	for m := range r.cluster.Clients {
		if n := r.cluster.Clients[m].NIC().Misrouted; n != 0 {
			t.Fatalf("client machine %d misrouted %d completions", m, n)
		}
	}
}
