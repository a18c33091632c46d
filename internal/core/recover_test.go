package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rfp/internal/faults"
	"rfp/internal/sim"
)

// recoveryParams returns DefaultParams with the recovery path armed.
func recoveryParams(deadlineNs int64) Params {
	pr := DefaultParams()
	pr.DeadlineNs = deadlineNs
	pr.DisableSwitch = true // keep the hybrid switch out of recovery tests
	return pr
}

// TestRecoveryFetchDropRetry: lost fetch completions are absorbed by the
// retry loop; every call still returns the correct bytes.
func TestRecoveryFetchDropRetry(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], recoveryParams(2_000_000))
	r.srv.AddThreads(1)
	inj := faults.Install(11, []faults.Stage{{Plan: faults.Plan{DropProb: 0.2, ReadsOnly: true}}}, r.cluster.Clients[0])
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	const calls = 60
	done := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < calls; i++ {
			req := []byte(fmt.Sprintf("drop-req-%03d", i))
			n, err := cli.Call(p, req, out)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if !bytes.Equal(out[:n], req) {
				t.Errorf("call %d: echo = %q, want %q", i, out[:n], req)
				return
			}
			done++
		}
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if done != calls {
		t.Fatalf("completed %d/%d calls (deadlock?)", done, calls)
	}
	if cli.Stats.FaultRetries == 0 {
		t.Fatalf("no fault retries despite DropProb=0.2 (%d drops injected)", inj.Counts().Drops)
	}
	if inj.Counts().Drops == 0 {
		t.Fatalf("injector never dropped a completion")
	}
	if cli.Stats.Deadlines != 0 {
		t.Fatalf("Deadlines = %d, want 0 (deadline is generous)", cli.Stats.Deadlines)
	}
}

// TestRecoveryServerCrashRestart: calls during the crash window fail within
// their deadline; after the restart the connection re-establishes and calls
// succeed again.
func TestRecoveryServerCrashRestart(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], recoveryParams(50_000))
	r.srv.AddThreads(1)
	crashAt := sim.Time(sim.Micros(200))
	restartAt := sim.Time(sim.Micros(400))
	inj := faults.Install(5, []faults.Stage{{Plan: faults.Plan{
		Crashes: []faults.Window{{Machine: "server", Start: crashAt, End: restartAt}},
	}}}, r.cluster.Server, r.cluster.Clients[0])
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	var before, failed, after int
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < 200; i++ {
			req := []byte(fmt.Sprintf("crash-req-%03d", i))
			n, err := cli.Call(p, req, out)
			switch {
			case err == nil:
				if !bytes.Equal(out[:n], req) {
					t.Errorf("call %d: echo = %q, want %q", i, out[:n], req)
					return
				}
				if p.Now() < crashAt {
					before++
				} else if p.Now() > restartAt {
					after++
				}
			case errors.Is(err, ErrDeadline) || errors.Is(err, ErrServerDown):
				failed++
				p.Sleep(sim.Micros(5))
			default:
				t.Errorf("call %d: unexpected error %v", i, err)
				return
			}
		}
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if before == 0 || after == 0 {
		t.Fatalf("successes before crash = %d, after restart = %d; want both > 0 (failed=%d)", before, after, failed)
	}
	if failed == 0 {
		t.Fatalf("no call failed during the crash window")
	}
	if cli.Stats.Reconnects == 0 {
		t.Fatalf("client never reconnected")
	}
	if inj.Counts().Crashes != 1 || inj.Counts().Restarts != 1 {
		t.Fatalf("injector counts = %+v, want 1 crash / 1 restart", inj.Counts())
	}
}

// TestRecoveryDemotion: a fetch path that keeps failing demotes the
// connection permanently to server-reply mode, which then works.
func TestRecoveryDemotion(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	pr := recoveryParams(30_000)
	pr.DemoteAfter = 3
	cli, conn := r.srv.Accept(r.cluster.Clients[0], pr)
	r.srv.AddThreads(1)
	// Every fetch read times out; writes (requests, mode flag, server
	// pushes) are untouched, so reply mode still works.
	faults.Install(3, []faults.Stage{{Plan: faults.Plan{DropProb: 1.0, ReadsOnly: true}}}, r.cluster.Clients[0])
	tun := NewTuner(Calibration{}, 0, 0)
	cli.AttachTuner(tun)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	var failed, succeeded int
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < 20; i++ {
			req := []byte(fmt.Sprintf("demote-%02d", i))
			n, err := cli.Call(p, req, out)
			if err != nil {
				failed++
				continue
			}
			if !bytes.Equal(out[:n], req) {
				t.Errorf("call %d: echo = %q, want %q", i, out[:n], req)
				return
			}
			succeeded++
		}
	})
	r.env.Run(sim.Time(100 * sim.Millisecond))
	if !cli.demoted {
		t.Fatalf("client not demoted after %d failed calls", failed)
	}
	if cli.Mode() != ModeReply {
		t.Fatalf("mode = %v, want reply after demotion", cli.Mode())
	}
	if succeeded == 0 {
		t.Fatalf("no call succeeded after demotion (failed=%d)", failed)
	}
	if cli.Stats.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", cli.Stats.Demotions)
	}
	if tun.Demotions != 1 {
		t.Fatalf("tuner Demotions = %d, want 1", tun.Demotions)
	}
}

// TestDemotionCancelsPendingSwitchBack: a connection demoted while already in
// reply mode stays there. The claim that reaches DemoteAfter reports a
// process time within switchBackUs, so the same claim would also switch
// later posts back to fetch; demotion is decided first and wins. (When the
// switch back waited for the ring to quiesce, demote used to leave it
// pending, and the demoted connection flipped to fetch as the ring
// emptied.) No post after the demotion carries fetch mode, and the
// connection never switches to fetch.
func TestDemotionCancelsPendingSwitchBack(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	pr := DefaultParams()
	pr.Depth = 2
	pr.DeadlineNs = 40_000 // resendNs = 5 µs
	pr.DemoteAfter = 1
	cli, conn := r.srv.Accept(r.cluster.Clients[0], pr)
	r.srv.AddThreads(1)
	// The first two requests take 6 µs: past resendNs, so both calls
	// re-deliver their request (fault recovery, the demotion input), yet
	// within switchBackUs.
	served := 0
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			if served++; served <= 2 {
				r.srv.Machine().Compute(p, sim.Micros(6))
			}
			return copy(resp, req)
		})
	})
	rounds := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		cli.setMode(ModeReply)
		out := make([]byte, 64)
		for ; rounds < 2; rounds++ {
			var hs [2]Handle
			for i := range hs {
				var err error
				if hs[i], err = cli.Post(p, []byte{'d', byte(i)}); err != nil {
					t.Errorf("round %d post %d: %v", rounds, i, err)
					return
				}
				if m := cli.slots[hs[i].slot].mode; m != ModeReply {
					t.Errorf("round %d post %d carries %v, want reply", rounds, i, m)
				}
			}
			for i, h := range hs {
				if n, err := cli.Poll(p, h, out); err != nil || n != 2 || out[1] != byte(i) {
					t.Errorf("round %d poll %d: (% x, %v)", rounds, i, out[:n], err)
					return
				}
				if rounds == 0 && i == 0 && (!cli.demoted || cli.outstanding != 1 || cli.Mode() != ModeReply) {
					t.Errorf("after the first claim: demoted=%v outstanding=%d mode=%v; want true, 1, reply",
						cli.demoted, cli.outstanding, cli.Mode())
				}
			}
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	st := cli.Stats
	if rounds != 2 || st.Resends == 0 || st.Demotions != 1 {
		t.Fatalf("rounds=%d resends=%d demotions=%d; want 2, > 0, 1", rounds, st.Resends, st.Demotions)
	}
	if cli.Mode() != ModeReply || st.SwitchToFetch != 0 || st.ReplyDeliveries != 4 {
		t.Fatalf("demoted connection: mode=%v switches to fetch=%d reply deliveries=%d; want reply, 0, 4",
			cli.Mode(), st.SwitchToFetch, st.ReplyDeliveries)
	}
}

// TestRecoveryPipelinedUnderDrops: the ring's per-slot recovery absorbs
// lost completions; every posted handle resolves with the right payload.
func TestRecoveryPipelinedUnderDrops(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	pr := recoveryParams(2_000_000)
	pr.Depth = 4
	cli, conn := r.srv.Accept(r.cluster.Clients[0], pr)
	r.srv.AddThreads(1)
	inj := faults.Install(17, []faults.Stage{{Plan: faults.Plan{DropProb: 0.1}}}, r.cluster.Clients[0])
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	const calls = 80
	done := 0
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		var handles []Handle
		var reqs [][]byte
		flush := func(p *sim.Proc) bool {
			for k, h := range handles {
				n, err := cli.Poll(p, h, out)
				if err != nil {
					t.Errorf("poll %d: %v", k, err)
					return false
				}
				if !bytes.Equal(out[:n], reqs[k]) {
					t.Errorf("poll %d: echo = %q, want %q", k, out[:n], reqs[k])
					return false
				}
				done++
			}
			handles, reqs = handles[:0], reqs[:0]
			return true
		}
		for i := 0; i < calls; i++ {
			req := []byte(fmt.Sprintf("pipe-req-%03d", i))
			h, err := cli.Post(p, req)
			if errors.Is(err, ErrRingFull) {
				if !flush(p) {
					return
				}
				h, err = cli.Post(p, req)
			}
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			handles = append(handles, h)
			reqs = append(reqs, req)
		}
		flush(p)
	})
	r.env.Run(sim.Time(100 * sim.Millisecond))
	if done != calls {
		t.Fatalf("completed %d/%d pipelined calls (deadlock?)", done, calls)
	}
	if inj.Counts().Drops == 0 {
		t.Fatalf("injector never dropped a completion")
	}
	if cli.Stats.FaultRetries == 0 {
		t.Fatalf("no fault retries recorded")
	}
}

// TestCloseAfterShrink: Close right after SetDepth shrank the ring below the
// calls in flight must resolve every handle with ErrClosed — those in slots
// above the new depth too — and leave the connection unusable.
func TestCloseAfterShrink(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	pr := DefaultParams()
	pr.Depth = 4
	cli, conn := r.srv.Accept(r.cluster.Clients[0], pr)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, slowHandler(r.srv.Machine(), sim.Micros(50)))
	})
	ran := false
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		var handles []Handle
		for i := 0; i < 3; i++ {
			h, err := cli.Post(p, []byte{byte(i)})
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			handles = append(handles, h)
		}
		cli.SetDepth(2) // the third call holds slot 2, above the new depth
		if err := cli.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		// Every in-flight handle resolves with a terminal error.
		out := make([]byte, 8)
		for k, h := range handles {
			if _, err := cli.Poll(p, h, out); !errors.Is(err, ErrClosed) {
				t.Errorf("poll %d after close: err = %v, want ErrClosed", k, err)
				return
			}
		}
		if _, err := cli.Post(p, []byte{9}); !errors.Is(err, ErrClosed) {
			t.Errorf("post after close: err = %v, want ErrClosed", err)
			return
		}
		if err := cli.Send(p, []byte{9}); !errors.Is(err, ErrClosed) {
			t.Errorf("send after close: err = %v, want ErrClosed", err)
			return
		}
		ran = true
	})
	end := r.env.RunAll() // no runnable process may remain (leak check)
	if !ran {
		t.Fatalf("client body did not complete")
	}
	if end == 0 {
		t.Fatalf("simulation never advanced")
	}
}

// TestSyncCallRidesOverCrash: a synchronous call whose deadline outlasts the
// server's outage does not fail. The connection dies under it, the driver
// re-establishes it and re-delivers the request from inside the call
// (redial), and the caller only sees a slow call — where a pipelined
// caller's handles would have resolved with the error.
func TestSyncCallRidesOverCrash(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, conn := r.srv.Accept(r.cluster.Clients[0], recoveryParams(2_000_000))
	r.srv.AddThreads(1)
	crashAt, restartAt := sim.Time(sim.Micros(200)), sim.Time(sim.Micros(300))
	faults.Install(5, []faults.Stage{{Plan: faults.Plan{
		Crashes: []faults.Window{{Machine: "server", Start: crashAt, End: restartAt}},
	}}}, r.cluster.Server, r.cluster.Clients[0])
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) { Serve(p, []*Conn{conn}, echoHandler) })
	done, slowest := 0, sim.Duration(0)
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for p.Now() < sim.Time(sim.Micros(500)) {
			req := []byte(fmt.Sprintf("ride-%03d", done))
			start := p.Now()
			n, err := cli.Call(p, req, out)
			if err != nil || !bytes.Equal(out[:n], req) {
				t.Errorf("call %d at %v: (%q, %v)", done, start, out[:n], err)
				return
			}
			slowest = max(slowest, p.Now().Sub(start))
			done++
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if done < 50 || slowest < restartAt.Sub(crashAt)/2 {
		t.Fatalf("%d calls, slowest %v: no call rode over the 100us outage", done, slowest)
	}
	if s := cli.Stats; s.Reconnects == 0 || s.Deadlines != 0 {
		t.Fatalf("reconnects=%d deadlines=%d; want the in-call path: >0, 0", s.Reconnects, s.Deadlines)
	}
}
