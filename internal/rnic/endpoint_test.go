package rnic

import (
	"errors"
	"testing"

	"rfp/internal/hw"
	"rfp/internal/sim"
)

// epRig is a pool on a "server" NIC plus one "client" peer NIC.
func epRig(env *sim.Env, perPeer int) (*EndpointPool, *NIC, *NIC) {
	prof := hw.ConnectX3()
	server := New(env, "server", prof)
	client := New(env, "client", prof)
	return NewEndpointPool(server, perPeer), server, client
}

// TestEndpointRoundRobin: endpoints are created lazily up to perPeer, then
// leases round-robin across them.
func TestEndpointRoundRobin(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	pool, _, client := epRig(env, 2)
	deliver := NewCQ(client)
	for i := 0; i < 5; i++ {
		if _, err := pool.Lease(client, deliver); err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
	}
	if pool.Endpoints() != 2 {
		t.Fatalf("Endpoints = %d, want 2 (perPeer)", pool.Endpoints())
	}
	if pool.Leases() != 5 {
		t.Fatalf("Leases = %d", pool.Leases())
	}
	if pool.Occupancy() != 3 {
		t.Fatalf("Occupancy = %d, want 3 (5 leases over 2 endpoints)", pool.Occupancy())
	}
}

// TestEndpointPrivateGeometry: perPeer 0 gives every lease its own endpoint
// and retires it with the lease; tags stay unique across two pools leasing
// to the same peer NIC.
func TestEndpointPrivateGeometry(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	pool, _, client := epRig(env, 0)
	other := NewEndpointPool(New(env, "server2", hw.ConnectX3()), 0)
	a, _ := pool.Lease(client, nil)
	b, _ := pool.Lease(client, nil)
	c, _ := other.Lease(client, nil)
	if a.Endpoint() == b.Endpoint() {
		t.Fatal("private leases share an endpoint")
	}
	if a.tag == b.tag || a.tag == c.tag || b.tag == c.tag {
		t.Fatalf("tags not unique on the reaping NIC: %d %d %d", a.tag, b.tag, c.tag)
	}
	if pool.Endpoints() != 2 || pool.Leases() != 2 || pool.Occupancy() != 1 {
		t.Fatalf("pool = %d endpoints / %d leases / occupancy %d, want 2/2/1",
			pool.Endpoints(), pool.Leases(), pool.Occupancy())
	}
	a.Release()
	a.Release() // idempotent
	if pool.Endpoints() != 1 || pool.Leases() != 1 {
		t.Fatalf("after release: %d endpoints / %d leases, want 1/1", pool.Endpoints(), pool.Leases())
	}
	b.Release()
	if pool.Endpoints() != 0 || pool.Occupancy() != 0 {
		t.Fatalf("drained pool: %d endpoints, occupancy %d", pool.Endpoints(), pool.Occupancy())
	}
}

// TestEndpointTagExhaustion: the reaping NIC's tag space is a typed error,
// not aliasing, and released tags are recycled.
func TestEndpointTagExhaustion(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	pool, _, client := epRig(env, 1)
	client.SetTagLimit(2)
	deliver := NewCQ(client)
	a, err := pool.Lease(client, deliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = pool.Lease(client, deliver); err != nil {
		t.Fatal(err)
	}
	if _, err = pool.Lease(client, deliver); !errors.Is(err, ErrTagSpace) {
		t.Fatalf("third lease err = %v, want ErrTagSpace", err)
	}
	a.Release()
	c, err := pool.Lease(client, deliver)
	if err != nil {
		t.Fatalf("lease after release: %v", err)
	}
	if c.tag != a.tag {
		t.Fatalf("recycled tag = %d, want %d", c.tag, a.tag)
	}
}

// TestEndpointDemux: completions posted under two leases' tags on the same
// shared endpoint CQ arrive each on its own deliver queue.
func TestEndpointDemux(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	pool, server, client := epRig(env, 1)
	client.RegisterIssuer()
	mr := server.RegisterMemory(256)
	h := mr.Handle()
	cqA, cqB := NewCQ(client), NewCQ(client)
	la, err := pool.Lease(client, cqA)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := pool.Lease(client, cqB)
	if err != nil {
		t.Fatal(err)
	}
	if la.Endpoint() != lb.Endpoint() {
		t.Fatal("perPeer=1 leases landed on different endpoints")
	}
	buf := make([]byte, 8)
	env.Go("cli", func(p *sim.Proc) {
		la.QP().Post(p, la.PostCQ(), WR{ID: la.Tag() | 1, Op: WRRead, Remote: h, Local: buf})
		lb.QP().Post(p, lb.PostCQ(), WR{ID: lb.Tag() | 2, Op: WRRead, Remote: h, Local: buf})
		ea := cqA.Wait(p)
		eb := cqB.Wait(p)
		if ea.ID != la.Tag()|1 {
			t.Errorf("lease A delivered ID %#x", ea.ID)
		}
		if eb.ID != lb.Tag()|2 {
			t.Errorf("lease B delivered ID %#x", eb.ID)
		}
	})
	env.RunAll()
	if client.Misrouted != 0 {
		t.Fatalf("Misrouted = %d", client.Misrouted)
	}
}

// TestEndpointStragglerDropped: a completion under a released tag is counted
// and dropped, never delivered to a later holder of the tag space.
func TestEndpointStragglerDropped(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	pool, server, client := epRig(env, 1)
	client.RegisterIssuer()
	mr := server.RegisterMemory(256)
	h := mr.Handle()
	deliver := NewCQ(client)
	l, err := pool.Lease(client, deliver)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	env.Go("cli", func(p *sim.Proc) {
		l.QP().Post(p, l.PostCQ(), WR{ID: l.Tag() | 7, Op: WRRead, Remote: h, Local: buf})
		l.Release() // tag freed while the read is in flight
	})
	env.RunAll()
	if deliver.Depth() != 0 {
		t.Fatal("straggler completion was delivered after release")
	}
	if client.Misrouted != 1 {
		t.Fatalf("Misrouted = %d, want 1", client.Misrouted)
	}
}

// FuzzEndpointDemux: arbitrary WR-ID images must never route a completion
// to a queue other than the one lease owning that exact tag on that exact
// endpoint — anything else is dropped (FuzzParseSlot's property, lifted to
// the demux path). The table is the reaping NIC's, shared by a 2-QP pool and
// a private-endpoint pool of a second server.
func FuzzEndpointDemux(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1) << TagShift)
	f.Add(^uint64(0))
	f.Add(uint64(0xffff) << TagShift)
	f.Add(uint64(0x8001)<<TagShift | 0xdeadbeef)

	env := sim.NewEnv(1)
	defer env.Close()
	pool, _, client := epRig(env, 2)
	private := NewEndpointPool(New(env, "server2", hw.ConnectX3()), 0)
	owner := make(map[uint16]*EndpointLease)
	var eps []*Endpoint
	for i := 0; i < 6; i++ {
		from := pool
		if i >= 4 {
			from = private
		}
		l, err := from.Lease(client, NewCQ(client))
		if err != nil {
			f.Fatal(err)
		}
		owner[l.tag] = l
		eps = append(eps, l.Endpoint())
	}
	released, _ := pool.Lease(client, NewCQ(client))
	released.Release()

	f.Fuzz(func(t *testing.T, id uint64) {
		for _, ep := range eps {
			got := ep.routeCQE(CQE{ID: id})
			l := owner[uint16(id>>TagShift)]
			if l != nil && l.ep == ep {
				if got != l.deliver {
					t.Fatalf("ID %#x on its own endpoint routed to the wrong queue", id)
				}
			} else if got != nil {
				t.Fatalf("ID %#x (no live lease on this endpoint) was delivered", id)
			}
		}
	})
}
