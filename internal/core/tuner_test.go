package core

import (
	"testing"

	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

func TestTunerAdaptsToSizeShift(t *testing.T) {
	// A service whose results grow from 32 B to 700 B mid-run: the tuner
	// must raise F past the new size so the second-read tax disappears.
	r := newRig(t, 1, ServerConfig{MaxResponse: 2048})
	params := DefaultParams()
	params.F = 256
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	cal := Calibrate(hw.ConnectX3(), 1)
	tuner := NewTuner(cal, 256, 64)
	tuner.TuneR = false
	cli.AttachTuner(tuner)
	r.srv.AddThreads(1)
	respSize := 32
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			return respSize
		})
	})
	var secondReadsSmall, secondReadsTail uint64
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 2048)
		for i := 0; i < 300; i++ {
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
		secondReadsSmall = cli.Stats.SecondReads
		respSize = 700 // workload shift
		for i := 0; i < 400; i++ {
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
		secondReadsTail = cli.Stats.SecondReads
	})
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if secondReadsSmall != 0 {
		t.Fatalf("%d second reads during the small phase", secondReadsSmall)
	}
	if cli.Params().F <= 700 {
		t.Fatalf("F = %d after shift, want > 700 (tuner did not adapt)", cli.Params().F)
	}
	if tuner.Retunes == 0 {
		t.Fatal("tuner never retuned")
	}
	// Transitional second reads are expected (until the window fills with
	// the new size), but they must stop: the last 100 calls of the run
	// happen after 300 shifted observations >> the 64-call period plus the
	// 256-sample window turnover.
	grow := secondReadsTail - secondReadsSmall
	if grow >= 400 {
		t.Fatalf("second reads never stopped after retuning (%d)", grow)
	}
}

// TestTunerComparesClampedF checks that a client whose response buffer caps
// F below the tuner's pick sees no F decision: the pick, clamped to the
// buffer, is the F the client already has, so nothing is logged and
// Retunes stays 0 however many periods pass.
func TestTunerComparesClampedF(t *testing.T) {
	r := newRig(t, 1, ServerConfig{MaxResponse: 33}) // a 32 B value plus its status byte
	cli, conn := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	if f := cli.Params().F; f != HeaderSize+33 {
		t.Fatalf("F = %d at accept, want %d (clamped to the buffer)", f, HeaderSize+33)
	}
	tuner := NewTuner(Calibrate(hw.ConnectX3(), 1), 64, 32)
	tuner.TuneR = false
	cli.AttachTuner(tuner)
	rec := telemetry.New(telemetry.Config{})
	tuner.SetRecorder(rec)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, func(p *sim.Proc, c *Conn, req, resp []byte) int { return 33 })
	})
	const calls = 8 * 32 // eight periods
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 33)
		for i := 0; i < calls; i++ {
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
	})
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if cli.Stats.Calls != calls {
		t.Fatalf("%d calls completed, want %d", cli.Stats.Calls, calls)
	}
	if tuner.Retunes != 0 {
		t.Errorf("Retunes = %d, want 0: F cannot move past the buffer", tuner.Retunes)
	}
	if d := rec.Snapshot().Decisions; len(d) != 0 {
		t.Errorf("%d decisions logged, want none; first: %v", len(d), d[0])
	}
	if f := cli.Params().F; f != HeaderSize+33 {
		t.Errorf("F = %d, want %d", f, HeaderSize+33)
	}
}

func TestTunerSharedAcrossClients(t *testing.T) {
	r := newRig(t, 2, ServerConfig{MaxResponse: 2048})
	params := DefaultParams()
	cal := Calibrate(hw.ConnectX3(), 1)
	tuner := NewTuner(cal, 128, 32)
	cliA, connA := r.srv.Accept(r.cluster.Clients[0], params)
	cliB, connB := r.srv.Accept(r.cluster.Clients[1], params)
	cliA.AttachTuner(tuner)
	cliB.AttachTuner(tuner)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{connA, connB}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			return 600
		})
	})
	for i, cli := range []*Client{cliA, cliB} {
		cli := cli
		r.cluster.Clients[i].Spawn("cli", func(p *sim.Proc) {
			out := make([]byte, 2048)
			for k := 0; k < 200; k++ {
				if _, err := cli.Call(p, []byte("q"), out); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		})
	}
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if cliA.Params().F < 608 || cliB.Params().F < 608 {
		t.Fatalf("shared tuner did not converge both clients: F_A=%d F_B=%d",
			cliA.Params().F, cliB.Params().F)
	}
	if len(tuner.sampler.Sizes) == 0 {
		t.Fatal("no samples collected")
	}
}

func TestTunerDetach(t *testing.T) {
	r := newRig(t, 1, ServerConfig{})
	cli, _ := r.srv.Accept(r.cluster.Clients[0], DefaultParams())
	cal := Calibrate(hw.ConnectX3(), 1)
	tuner := NewTuner(cal, 16, 8)
	cli.AttachTuner(tuner)
	if cli.Tuner() != tuner {
		t.Fatal("attach")
	}
	cli.AttachTuner(nil)
	if cli.Tuner() != nil {
		t.Fatal("detach")
	}
}

func TestTunerRSelection(t *testing.T) {
	// With TuneR enabled and consistently tiny process times, R should be
	// re-selected down from the default 5.
	r := newRig(t, 1, ServerConfig{})
	params := DefaultParams()
	cli, conn := r.srv.Accept(r.cluster.Clients[0], params)
	cal := Calibrate(hw.ConnectX3(), 16)
	tuner := NewTuner(cal, 128, 32)
	cli.AttachTuner(tuner)
	r.srv.AddThreads(1)
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{conn}, echoHandler)
	})
	r.cluster.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := 0; k < 100; k++ {
			if _, err := cli.Call(p, []byte("q"), out); err != nil {
				t.Errorf("call: %v", err)
				return
			}
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if got := cli.Params().R; got >= 5 {
		t.Fatalf("R = %d after tuning on a fast server, want < 5", got)
	}
}

// TestTunerSharedAcrossModeSwitch attaches one tuner to two clients and
// drives the workload through a shift that both grows the responses and
// slows the server enough to force the hybrid switch to reply mode. The
// control plane must keep working across the switch: samples gathered in
// reply mode still feed the window, and the re-selected F and ring depth
// land on every attached client.
func TestTunerSharedAcrossModeSwitch(t *testing.T) {
	r := newRig(t, 2, ServerConfig{MaxResponse: 2048})
	params := DefaultParams()
	params.F = 256
	params.MaxDepth = 8
	cal := Calibrate(hw.ConnectX3(), 1)
	tuner := NewTuner(cal, 128, 32)
	tuner.TuneR = false
	tuner.TuneDepth = true
	cliA, connA := r.srv.Accept(r.cluster.Clients[0], params)
	cliB, connB := r.srv.Accept(r.cluster.Clients[1], params)
	cliA.AttachTuner(tuner)
	cliB.AttachTuner(tuner)
	r.srv.AddThreads(1)
	// Phase variables, mutated only between env.Run calls (sim parked).
	respSize, procUs := 32, sim.Duration(0)
	m := r.srv.Machine()
	r.srv.Machine().Spawn("srv", func(p *sim.Proc) {
		Serve(p, []*Conn{connA, connB}, func(p *sim.Proc, c *Conn, req, resp []byte) int {
			if procUs > 0 {
				m.Compute(p, procUs*sim.Microsecond)
			}
			return respSize
		})
	})
	calls := [2]int{}
	for i, cli := range []*Client{cliA, cliB} {
		i, cli := i, cli
		r.cluster.Clients[i].Spawn("cli", func(p *sim.Proc) {
			out := make([]byte, 2048)
			for {
				if _, err := cli.Call(p, []byte("q"), out); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				calls[i]++
			}
		})
	}
	r.env.Run(sim.Time(3 * sim.Millisecond))
	fast := calls
	if fast[0] == 0 || fast[1] == 0 {
		t.Fatalf("no progress in the fast phase: %v", fast)
	}
	if cliA.Mode() != ModeFetch || cliB.Mode() != ModeFetch {
		t.Fatalf("fast phase modes: %v/%v, want fetch", cliA.Mode(), cliB.Mode())
	}
	respSize, procUs = 600, 40 // the shift: bigger results, slow server
	r.env.Run(sim.Time(43 * sim.Millisecond))
	if calls[0] <= fast[0] || calls[1] <= fast[1] {
		t.Fatalf("no progress after the shift: %v vs %v", calls, fast)
	}
	// Both connections crossed the hybrid switch...
	if cliA.Mode() != ModeReply || cliB.Mode() != ModeReply {
		t.Fatalf("modes after shift: %v/%v, want reply", cliA.Mode(), cliB.Mode())
	}
	// ...and the tuner kept adapting them afterward, as a pair.
	if tuner.Retunes == 0 {
		t.Fatal("tuner never retuned")
	}
	if cliA.Params().F <= 600 || cliA.Params().F != cliB.Params().F {
		t.Fatalf("F after shift: A=%d B=%d, want equal and > 600",
			cliA.Params().F, cliB.Params().F)
	}
	if cliA.Depth() <= 1 || cliA.Depth() != cliB.Depth() {
		t.Fatalf("depth after shift: A=%d B=%d, want equal and > 1",
			cliA.Depth(), cliB.Depth())
	}
}
