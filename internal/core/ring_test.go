package core

import (
	"bytes"
	"fmt"
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
)

// TestRingPipelinedEcho drives a depth-8 ring through several full waves of
// Post/Poll and checks every response routes back to the right handle.
func TestRingPipelinedEcho(t *testing.T) {
	const depth = 8
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = depth
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	if cli.Depth() != depth || conn.Depth() != depth {
		t.Fatalf("depth = %d/%d, want %d", cli.Depth(), conn.Depth(), depth)
	}
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	const waves = 25
	done := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for w := 0; w < waves; w++ {
			var hs [depth]Handle
			for i := range hs {
				h, err := cli.Post(p, []byte(fmt.Sprintf("req-%02d-%02d", w, i)))
				if err != nil {
					t.Errorf("wave %d post %d: %v", w, i, err)
					return
				}
				hs[i] = h
			}
			for i, h := range hs {
				n, err := cli.Poll(p, h, out)
				if err != nil {
					t.Errorf("wave %d poll %d: %v", w, i, err)
					return
				}
				want := fmt.Sprintf("req-%02d-%02d", w, i)
				if string(out[:n]) != want {
					t.Errorf("wave %d slot %d: got %q want %q", w, i, out[:n], want)
					return
				}
				done++
			}
		}
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if done != waves*depth {
		t.Fatalf("completed %d/%d calls", done, waves*depth)
	}
	if cli.Stats.Calls != waves*depth {
		t.Fatalf("Calls = %d, want %d", cli.Stats.Calls, waves*depth)
	}
	if cli.outstanding != 0 {
		t.Fatalf("Outstanding = %d after drain", cli.outstanding)
	}
}

// TestRingPollOutOfOrder posts a full ring and polls the handles in reverse,
// exercising completion routing by handle rather than FIFO order.
func TestRingPollOutOfOrder(t *testing.T) {
	const depth = 4
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = depth
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	ok := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		var hs [depth]Handle
		for i := range hs {
			h, err := cli.Post(p, []byte{byte('a' + i)})
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			hs[i] = h
		}
		for i := depth - 1; i >= 0; i-- {
			n, err := cli.Poll(p, hs[i], out)
			if err != nil || n != 1 || out[0] != byte('a'+i) {
				t.Errorf("poll %d: n=%d err=%v out=%q", i, n, err, out[:n])
				return
			}
		}
		ok = true
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}

// TestRingFullAndBusy checks the two guard errors: Post with every slot in
// flight returns ErrRingFull, and the synchronous Send path refuses to mix
// with outstanding posts until they are drained.
func TestRingFullAndBusy(t *testing.T) {
	const depth = 2
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = depth
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	ok := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		h1, err := cli.Post(p, []byte("one"))
		if err != nil {
			t.Errorf("post 1: %v", err)
			return
		}
		h2, err := cli.Post(p, []byte("two"))
		if err != nil {
			t.Errorf("post 2: %v", err)
			return
		}
		if _, err := cli.Post(p, []byte("three")); err != ErrRingFull {
			t.Errorf("post 3: err = %v, want ErrRingFull", err)
			return
		}
		if err := cli.Send(p, []byte("sync")); err != ErrRingBusy {
			t.Errorf("Send with ring busy: err = %v, want ErrRingBusy", err)
			return
		}
		for _, h := range []Handle{h1, h2} {
			if _, err := cli.Poll(p, h, out); err != nil {
				t.Errorf("poll: %v", err)
				return
			}
		}
		// Drained: the sync path works again, and a claimed handle is dead.
		if _, err := cli.Call(p, []byte("sync"), out); err != nil {
			t.Errorf("Call after drain: %v", err)
			return
		}
		if _, err := cli.Poll(p, h1, out); err != ErrBadHandle {
			t.Errorf("re-poll claimed handle: err = %v, want ErrBadHandle", err)
			return
		}
		ok = true
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}

// TestRingPendingResizeFillsRing checks that core enforces its own resize
// rule: after SetDepth on a busy ring, Post reports ErrRingFull until the
// last in-flight handle is claimed, and the next Post lands at the new
// depth, so a driver that claims on a full ring drains for the resize.
func TestRingPendingResizeFillsRing(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = 4
	params.MaxDepth = 8
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	ok := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		var hs []Handle
		for i := 0; i < 3; i++ { // one slot of the four stays free
			h, err := cli.Post(p, []byte{byte(i)})
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			hs = append(hs, h)
		}
		cli.SetDepth(8)
		for i, h := range hs {
			if _, err := cli.Post(p, []byte("early")); err != ErrRingFull {
				t.Errorf("post with %d handles in flight and a resize pending: err = %v, want ErrRingFull", len(hs)-i, err)
				return
			}
			if _, err := cli.Poll(p, h, out); err != nil {
				t.Errorf("poll %d: %v", i, err)
				return
			}
		}
		if cli.Depth() != 8 {
			t.Errorf("depth %d after the last claim, want 8", cli.Depth())
			return
		}
		for i := 0; i < 8; i++ {
			if _, err := cli.Post(p, []byte{byte(i)}); err != nil {
				t.Errorf("post %d at the new depth: %v", i, err)
				return
			}
		}
		if _, err := cli.Post(p, []byte("over")); err != ErrRingFull {
			t.Errorf("post past depth 8: err = %v, want ErrRingFull", err)
			return
		}
		ok = true
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}

// TestRingReplyMode pipelines posts on a connection pinned to server-reply:
// responses arrive by server push into per-slot landings.
func TestRingReplyMode(t *testing.T) {
	const depth = 4
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = depth
	params.ForceReply = true
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	done := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for w := 0; w < 10; w++ {
			var hs [depth]Handle
			for i := range hs {
				h, err := cli.Post(p, []byte(fmt.Sprintf("r%d-%d", w, i)))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				hs[i] = h
			}
			for i, h := range hs {
				n, err := cli.Poll(p, h, out)
				if err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				if want := fmt.Sprintf("r%d-%d", w, i); string(out[:n]) != want {
					t.Errorf("got %q want %q", out[:n], want)
					return
				}
				done++
			}
		}
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if done != 40 {
		t.Fatalf("completed %d/40", done)
	}
	if cli.Stats.ReplyDeliveries != 40 {
		t.Fatalf("ReplyDeliveries = %d, want 40", cli.Stats.ReplyDeliveries)
	}
	if conn.ServedReply != 40 || conn.ServedFetch != 0 {
		t.Fatalf("served reply=%d fetch=%d", conn.ServedReply, conn.ServedFetch)
	}
}

// TestRingHybridSwitch runs a deep ring against a slow handler and checks
// the deferred mode switch: the connection ends up in reply mode, every
// call still completes correctly, and the flip only ever happened with the
// ring quiesced (asserted indirectly: responses in flight across the switch
// would be lost and hang the run).
func TestRingHybridSwitch(t *testing.T) {
	const depth = 4
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = depth
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, slowHandler(r.srv.Machine(), 40*sim.Microsecond))
	})
	done := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for w := 0; w < 8; w++ {
			var hs [depth]Handle
			for i := range hs {
				h, err := cli.Post(p, []byte(fmt.Sprintf("s%d-%d", w, i)))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				hs[i] = h
			}
			for i, h := range hs {
				n, err := cli.Poll(p, h, out)
				if err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				if want := fmt.Sprintf("s%d-%d", w, i); string(out[:n]) != want {
					t.Errorf("got %q want %q", out[:n], want)
					return
				}
				done++
			}
		}
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if done != 8*depth {
		t.Fatalf("completed %d/%d", done, 8*depth)
	}
	if cli.Mode() != ModeReply {
		t.Fatalf("mode = %v, want reply after sustained overruns", cli.Mode())
	}
	if cli.Stats.SwitchToReply == 0 {
		t.Fatal("no switch to reply recorded")
	}
	if cli.Stats.ReplyDeliveries == 0 {
		t.Fatal("no reply deliveries after switch")
	}
}

// TestRingCloseInFlight is the fault-injection case from the issue: a client
// with posted requests in flight closes the connection. Every outstanding
// handle must resolve with a definite error so the caller can release the
// request buffers it allocated — nothing leaks from the registered region.
func TestRingCloseInFlight(t *testing.T) {
	const depth = 4
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = depth
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, slowHandler(r.srv.Machine(), 100*sim.Microsecond))
	})
	ok := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		alloc := NewBufAllocator(r.cluster.Clients[0].NIC(), 4096)
		bufs := make([][]byte, depth)
		hs := make([]Handle, depth)
		for i := range hs {
			buf, err := alloc.MallocBuf(32)
			if err != nil {
				t.Errorf("malloc %d: %v", i, err)
				return
			}
			copy(buf, fmt.Sprintf("close-%d", i))
			bufs[i] = buf
			h, err := cli.Post(p, buf)
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			hs[i] = h
		}
		if err := cli.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		out := make([]byte, 64)
		for i, h := range hs {
			if _, err := cli.Poll(p, h, out); err != ErrClosed {
				t.Errorf("poll %d after close: err = %v, want ErrClosed", i, err)
				return
			}
			// The definite outcome releases ownership of the request buffer.
			if err := alloc.FreeBuf(bufs[i]); err != nil {
				t.Errorf("free %d: %v", i, err)
				return
			}
		}
		if live := alloc.LiveAllocs(); live != 0 {
			t.Errorf("LiveAllocs = %d after resolving all handles", live)
			return
		}
		if _, err := cli.Post(p, []byte("late")); err != ErrClosed {
			t.Errorf("post after close: err = %v, want ErrClosed", err)
			return
		}
		ok = true
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}

// TestRingDepthOneMatchesCall checks that a depth-1 ring driven through
// Post/Poll completes calls in about the per-call virtual time Call takes at
// steady state. The two are drivers over one slot engine and differ by a
// single charge: Poll's progress loop reaps its queue without blocking
// (LocalPollNs per step) before it issues, Call's steps never do — hence a
// tolerance rather than equality.
func TestRingDepthOneMatchesCall(t *testing.T) {
	run := func(pipelined bool) sim.Duration {
		r := newRig(t, 1, ServerConfig{})
		cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
		r.srv.AddThreads(1)
		r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
			Serve(p, []*Conn{conn}, echoHandler)
		})
		var total sim.Duration
		r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
			out := make([]byte, 64)
			start := p.Now()
			for i := 0; i < 100; i++ {
				if pipelined {
					h, err := cli.Post(p, []byte("x"))
					if err != nil {
						t.Errorf("post: %v", err)
						return
					}
					if _, err := cli.Poll(p, h, out); err != nil {
						t.Errorf("poll: %v", err)
						return
					}
				} else if _, err := cli.Call(p, []byte("x"), out); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
			total = p.Now().Sub(start)
		})
		r.env.Run(sim.Time(50 * sim.Millisecond))
		return total
	}
	sync := run(false)
	async := run(true)
	if sync == 0 || async == 0 {
		t.Fatalf("sync=%v async=%v", sync, async)
	}
	ratio := float64(async) / float64(sync)
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("depth-1 Post/Poll %v vs Call %v (ratio %.2f), want comparable", async, sync, ratio)
	}
}

// BenchmarkRingDepth reports single-thread echo throughput of the ring at
// increasing depths; the pipelining win over depth 1 is the point of the
// extension.
func BenchmarkRingDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			env := sim.NewEnv(7)
			defer env.Close()
			cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
			srv := NewServer(cl.Server, ServerConfig{MaxRequest: 64, MaxResponse: 64})
			params := DefaultParams()
			params.Depth = depth
			cli, conn := srv.Accept(cl.Clients[0], params)
			srv.AddThreads(1)
			srv.Machine().Spawn("srv", func(p *sim.Proc) {
				Serve(p, []*Conn{conn}, echoHandler)
			})
			done := 0
			start := env.Now()
			cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
				out := make([]byte, 64)
				req := bytes.Repeat([]byte("k"), 32)
				hs := make([]Handle, 0, depth)
				for {
					for len(hs) < depth {
						h, err := cli.Post(p, req)
						if err != nil {
							b.Errorf("post: %v", err)
							return
						}
						hs = append(hs, h)
					}
					if _, err := cli.Poll(p, hs[0], out); err != nil {
						b.Errorf("poll: %v", err)
						return
					}
					hs = hs[:copy(hs, hs[1:])]
					done++
				}
			})
			b.ResetTimer()
			for done < b.N {
				env.Run(env.Now().Add(sim.Duration(50 * sim.Microsecond)))
			}
			if el := env.Now().Sub(start); el > 0 {
				b.ReportMetric(float64(done)*1e3/float64(el), "Mops")
			}
		})
	}
}

// TestRingResizeUnderTraffic drives depth-8 traffic while resizing the ring
// (shrink, grow to capacity, and back), checking the quiesce rule end to
// end: a resize requested with posts in flight stays pending, lands exactly
// when the ring drains, and never loses a completion or leaks a request
// buffer from the registered region.
func TestRingResizeUnderTraffic(t *testing.T) {
	const depth = 8
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	params.Depth = depth
	params.MaxDepth = 16
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	if cli.maxDepth != 16 {
		t.Fatalf("MaxDepth = %d, want 16", cli.maxDepth)
	}
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	ok := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		alloc := NewBufAllocator(r.cluster.Clients[0].NIC(), 8192)
		out := make([]byte, 64)
		// postWave fills the ring to its current depth with allocated
		// request buffers; drain polls every handle, checks the echo, and
		// returns the buffers to the region.
		var hs []Handle
		var bufs [][]byte
		wave := 0
		postWave := func() bool {
			wave++
			for i := 0; len(hs) < cli.Depth(); i++ {
				buf, err := alloc.MallocBuf(32)
				if err != nil {
					t.Errorf("wave %d malloc: %v", wave, err)
					return false
				}
				copy(buf, fmt.Sprintf("rz-%02d-%02d", wave, i))
				h, err := cli.Post(p, buf[:len(fmt.Sprintf("rz-%02d-%02d", wave, i))])
				if err != nil {
					t.Errorf("wave %d post %d: %v", wave, i, err)
					return false
				}
				hs = append(hs, h)
				bufs = append(bufs, buf)
			}
			return true
		}
		drain := func() bool {
			for i, h := range hs {
				n, err := cli.Poll(p, h, out)
				if err != nil {
					t.Errorf("wave %d poll %d: %v", wave, i, err)
					return false
				}
				if want := fmt.Sprintf("rz-%02d-%02d", wave, i); string(out[:n]) != want {
					t.Errorf("wave %d slot %d: got %q want %q", wave, i, out[:n], want)
					return false
				}
				if err := alloc.FreeBuf(bufs[i]); err != nil {
					t.Errorf("wave %d free %d: %v", wave, i, err)
					return false
				}
			}
			hs, bufs = hs[:0], bufs[:0]
			return true
		}
		for _, newDepth := range []int{2, 16, 8} {
			if !postWave() {
				return
			}
			cli.SetDepth(newDepth)
			// In flight: the resize must defer, not reshape the live ring.
			if cli.Depth() == newDepth || cli.pendingDepth != newDepth {
				t.Errorf("SetDepth(%d) in flight: depth=%d pending=%d, want deferred",
					newDepth, cli.Depth(), cli.pendingDepth)
				return
			}
			if !drain() {
				return
			}
			// Quiesced: the pending depth landed with the last completion.
			if cli.Depth() != newDepth || cli.pendingDepth != 0 {
				t.Errorf("after drain: depth=%d pending=%d, want %d/0",
					cli.Depth(), cli.pendingDepth, newDepth)
				return
			}
			// A full wave at the new geometry completes cleanly, and the
			// ring bound moved with the resize.
			if !postWave() {
				return
			}
			if _, err := cli.Post(p, []byte("over")); err != ErrRingFull {
				t.Errorf("post past depth %d: err = %v, want ErrRingFull", newDepth, err)
				return
			}
			if !drain() {
				return
			}
		}
		// Clamped above capacity: applies immediately (ring is idle).
		cli.SetDepth(99)
		if cli.Depth() != cli.maxDepth || cli.pendingDepth != 0 {
			t.Errorf("SetDepth(99): depth=%d pending=%d, want clamp to %d",
				cli.Depth(), cli.pendingDepth, cli.maxDepth)
			return
		}
		if live := alloc.LiveAllocs(); live != 0 {
			t.Errorf("LiveAllocs = %d after all waves, want 0", live)
			return
		}
		if cli.outstanding != 0 {
			t.Errorf("Outstanding = %d after drain", cli.outstanding)
			return
		}
		ok = true
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if !ok {
		t.Fatal("did not complete")
	}
}
