package rnic

import (
	"bytes"
	"testing"
	"testing/quick"

	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/trace"
)

func pair(env *sim.Env) (*NIC, *NIC, *QP, *QP) {
	prof := hw.ConnectX3()
	a := New(env, "a", prof)
	b := New(env, "b", prof)
	qa, qb := Connect(a, b)
	return a, b, qa, qb
}

func TestWriteCopiesBytes(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	_, b, qa, _ := pair(env)
	mr := b.RegisterMemory(64)
	h := mr.Handle()
	payload := []byte("hello, rdma write")
	env.Go("client", func(p *sim.Proc) {
		if err := qa.Write(p, h, 8, payload); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	env.RunAll()
	if !bytes.Equal(mr.Buf[8:8+len(payload)], payload) {
		t.Fatalf("remote buffer = %q", mr.Buf[8:8+len(payload)])
	}
}

func TestReadCopiesBytes(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	_, b, qa, _ := pair(env)
	mr := b.RegisterMemory(64)
	copy(mr.Buf[4:], "remote-data")
	h := mr.Handle()
	got := make([]byte, 11)
	env.Go("client", func(p *sim.Proc) {
		if err := qa.Read(p, h, 4, got); err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	env.RunAll()
	if string(got) != "remote-data" {
		t.Fatalf("read %q", got)
	}
}

func TestBoundsChecks(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	_, b, qa, _ := pair(env)
	mr := b.RegisterMemory(16)
	h := mr.Handle()
	var wErr, rErr, negErr error
	env.Go("client", func(p *sim.Proc) {
		wErr = qa.Write(p, h, 10, make([]byte, 10))
		rErr = qa.Read(p, h, 0, make([]byte, 17))
		negErr = qa.Read(p, h, -1, make([]byte, 1))
	})
	env.RunAll()
	for _, err := range []error{wErr, rErr, negErr} {
		if err != ErrBounds {
			t.Fatalf("err = %v, want ErrBounds", err)
		}
	}
}

func TestDeregisteredRegionRejected(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	_, b, qa, _ := pair(env)
	mr := b.RegisterMemory(16)
	h := mr.Handle()
	mr.Deregister()
	var err error
	env.Go("client", func(p *sim.Proc) {
		err = qa.Read(p, h, 0, make([]byte, 4))
	})
	env.RunAll()
	if err != ErrDeregister {
		t.Fatalf("err = %v, want ErrDeregister", err)
	}
	if h.Valid() {
		t.Fatal("handle still valid after deregister")
	}
}

func TestWrongPeerRejected(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	prof := hw.ConnectX3()
	a, b, c := New(env, "a", prof), New(env, "b", prof), New(env, "c", prof)
	qab, _ := Connect(a, b)
	mrC := c.RegisterMemory(16)
	h := mrC.Handle()
	var err error
	env.Go("client", func(p *sim.Proc) {
		err = qab.Read(p, h, 0, make([]byte, 4))
	})
	env.RunAll()
	if err != ErrBadKey {
		t.Fatalf("err = %v, want ErrBadKey (region not on connected peer)", err)
	}
}

func TestReadLatencySmallPayload(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	_, b, qa, _ := pair(env)
	mr := b.RegisterMemory(64)
	h := mr.Handle()
	var lat sim.Duration
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		_ = qa.Read(p, h, 0, make([]byte, 32))
		lat = p.Now().Sub(start)
	})
	env.RunAll()
	// Uncontended small read: ~post + engine + 2x propagation + responder
	// work + completion ~ 1.5 us (RDMA read latencies on real ConnectX-3
	// are 1.5-2 us).
	if lat < sim.Micros(1.2) || lat > sim.Micros(2.0) {
		t.Fatalf("read latency = %v, want ~1.5us", lat)
	}
}

func TestWriteFasterThanRead(t *testing.T) {
	// Paper Sec. 4.4.2: a single RDMA Write has lower latency than a single
	// RDMA Read.
	env := sim.NewEnv(1)
	defer env.Close()
	_, b, qa, _ := pair(env)
	mr := b.RegisterMemory(64)
	h := mr.Handle()
	var wLat, rLat sim.Duration
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		_ = qa.Write(p, h, 0, make([]byte, 32))
		wLat = p.Now().Sub(start)
		start = p.Now()
		_ = qa.Read(p, h, 0, make([]byte, 32))
		rLat = p.Now().Sub(start)
	})
	env.RunAll()
	if wLat >= rLat {
		t.Fatalf("write latency %v >= read latency %v", wLat, rLat)
	}
}

func TestStatsCountOps(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	a, b, qa, _ := pair(env)
	mr := b.RegisterMemory(64)
	h := mr.Handle()
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			_ = qa.Write(p, h, 0, make([]byte, 8))
		}
		for i := 0; i < 3; i++ {
			_ = qa.Read(p, h, 0, make([]byte, 8))
		}
	})
	env.RunAll()
	if a.Stats.OutOps != 8 {
		t.Fatalf("initiator OutOps = %d, want 8", a.Stats.OutOps)
	}
	if b.Stats.InOps != 8 {
		t.Fatalf("responder InOps = %d, want 8", b.Stats.InOps)
	}
	if b.Stats.InBytes != 5*8+3*8 {
		t.Fatalf("responder InBytes = %d", b.Stats.InBytes)
	}
	if a.Stats.InOps != 0 {
		t.Fatal("initiator should serve no in-bound ops in this test")
	}
}

func TestSendRecvDelivery(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	_, _, qa, qb := pair(env)
	var got []byte
	env.Go("receiver", func(p *sim.Proc) {
		got = qb.Recv(p)
	})
	env.Go("sender", func(p *sim.Proc) {
		_ = qa.Send(p, []byte("two-sided"))
	})
	env.RunAll()
	if string(got) != "two-sided" {
		t.Fatalf("got %q", got)
	}
}

func TestSendRecvFIFO(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	_, _, qa, qb := pair(env)
	var got []byte
	env.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			m := qb.Recv(p)
			got = append(got, m[0])
		}
	})
	env.Go("sender", func(p *sim.Proc) {
		for i := byte(0); i < 4; i++ {
			_ = qa.Send(p, []byte{i})
		}
	})
	env.RunAll()
	for i := byte(0); i < 4; i++ {
		if got[i] != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestTryRecv(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	_, _, qa, qb := pair(env)
	var early, late bool
	env.Go("receiver", func(p *sim.Proc) {
		_, early = qb.TryRecv(p)
		p.Sleep(sim.Micros(10))
		_, late = qb.TryRecv(p)
	})
	env.Go("sender", func(p *sim.Proc) {
		p.Sleep(sim.Micros(1))
		_ = qa.Send(p, []byte("x"))
	})
	env.RunAll()
	if early {
		t.Fatal("TryRecv returned message before any send")
	}
	if !late {
		t.Fatal("TryRecv missed delivered message")
	}
}

func TestSendRecvSymmetricCost(t *testing.T) {
	// Two-sided operations must not exhibit the in/out-bound asymmetry
	// (paper Sec. 2.2): both endpoints pay comparable engine time.
	env := sim.NewEnv(1)
	defer env.Close()
	a, b, qa, qb := pair(env)
	const n = 200
	env.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			_ = qb.Recv(p)
		}
	})
	env.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			_ = qa.Send(p, make([]byte, 32))
		}
	})
	env.RunAll()
	// Sender uses its engine once per send; receiver uses its own engine
	// once per recv. Compare occupancy accounted on the two engines.
	sendBusy := float64(a.outEngine.Busy)
	recvBusy := float64(b.outEngine.Busy)
	if recvBusy < 0.8*sendBusy || recvBusy > 1.25*sendBusy {
		t.Fatalf("asymmetric two-sided cost: send engine %v vs recv engine %v", sendBusy, recvBusy)
	}
}

func TestOutEngineSaturation(t *testing.T) {
	// Four issuing threads saturate the initiator engine at ~2.11 MOPS for
	// 32-byte payloads (paper Fig. 3).
	env := sim.NewEnv(1)
	defer env.Close()
	prof := hw.ConnectX3()
	a := New(env, "a", prof)
	ops := 0
	const threads = 6
	for i := 0; i < threads; i++ {
		b := New(env, "b", prof)
		qa, _ := Connect(a, b)
		mr := b.RegisterMemory(64)
		h := mr.Handle()
		a.RegisterIssuer()
		env.Go("issuer", func(p *sim.Proc) {
			buf := make([]byte, 32)
			for {
				if err := qa.Write(p, h, 0, buf); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				ops++
			}
		})
	}
	window := sim.Duration(4 * sim.Millisecond)
	env.Run(sim.Time(window))
	env.Close()
	mops := float64(ops) / window.Seconds() / 1e6
	if mops < 1.7 || mops > 2.3 {
		t.Fatalf("out-bound saturation = %.2f MOPS, want ~2.11 (with %d-thread contention)", mops, threads)
	}
}

func TestInEngineSaturation(t *testing.T) {
	// Many clients reading from one server saturate its in-bound engine at
	// ~11.26 MOPS (paper Fig. 3).
	env := sim.NewEnv(1)
	defer env.Close()
	prof := hw.ConnectX3()
	server := New(env, "server", prof)
	mr := server.RegisterMemory(4096)
	h := mr.Handle()
	const machines, perMachine = 7, 4
	for m := 0; m < machines; m++ {
		cli := New(env, "client", prof)
		for i := 0; i < perMachine; i++ {
			cli.RegisterIssuer()
			qc, _ := Connect(cli, server)
			env.Go("reader", func(p *sim.Proc) {
				buf := make([]byte, 32)
				for {
					if err := qc.Read(p, h, 0, buf); err != nil {
						t.Errorf("Read: %v", err)
						return
					}
				}
			})
		}
	}
	window := sim.Duration(4 * sim.Millisecond)
	env.Run(sim.Time(window))
	inOps := server.Stats.InOps
	env.Close()
	mops := float64(inOps) / window.Seconds() / 1e6
	if mops < 10.0 || mops > 12.0 {
		t.Fatalf("in-bound saturation = %.2f MOPS, want ~11.26", mops)
	}
}

func TestBandwidthBoundConvergence(t *testing.T) {
	// At 4 KB payloads both directions are bandwidth-bound (~1.2 MOPS on a
	// 40 Gbps link); asymmetry disappears (paper Fig. 5).
	measure := func(read bool) float64 {
		env := sim.NewEnv(1)
		defer env.Close()
		prof := hw.ConnectX3()
		server := New(env, "server", prof)
		mr := server.RegisterMemory(1 << 20)
		h := mr.Handle()
		ops := 0
		for m := 0; m < 7; m++ {
			cli := New(env, "client", prof)
			for i := 0; i < 4; i++ {
				cli.RegisterIssuer()
				qc, qs := Connect(cli, server)
				cliMR := cli.RegisterMemory(8192)
				cliH := cliMR.Handle()
				if read {
					env.Go("reader", func(p *sim.Proc) {
						buf := make([]byte, 4096)
						for {
							_ = qc.Read(p, h, 0, buf)
							ops++
						}
					})
				} else {
					server.RegisterIssuer()
					env.Go("writer", func(p *sim.Proc) {
						buf := make([]byte, 4096)
						for {
							_ = qs.Write(p, cliH, 0, buf)
							ops++
						}
					})
				}
			}
		}
		window := sim.Duration(4 * sim.Millisecond)
		env.Run(sim.Time(window))
		return float64(ops) / window.Seconds() / 1e6
	}
	in := measure(true)   // server in-bound: reads served, responses on server TX
	out := measure(false) // server out-bound: writes issued, data on server TX
	if in < 0.9 || in > 1.5 || out < 0.9 || out > 1.5 {
		t.Fatalf("4KB rates in=%.2f out=%.2f MOPS, want ~1.2", in, out)
	}
	ratio := in / out
	if ratio < 0.8 || ratio > 1.35 {
		t.Fatalf("4KB asymmetry persists: in=%.2f out=%.2f", in, out)
	}
}

func TestQPContentionSlowsPerOp(t *testing.T) {
	latency := func(threads int) sim.Duration {
		env := sim.NewEnv(1)
		defer env.Close()
		prof := hw.ConnectX3()
		a := New(env, "a", prof)
		b := New(env, "b", prof)
		for i := 0; i < threads; i++ {
			a.RegisterIssuer()
		}
		qa, _ := Connect(a, b)
		mr := b.RegisterMemory(64)
		h := mr.Handle()
		var lat sim.Duration
		env.Go("c", func(p *sim.Proc) {
			start := p.Now()
			_ = qa.Read(p, h, 0, make([]byte, 32))
			lat = p.Now().Sub(start)
		})
		env.RunAll()
		return lat
	}
	// The contention model applies to read issuance (initiators keep
	// per-read response state); with jitter up to 40ns, the 12-issuer
	// penalty (6 extra threads x 9% of 474ns ~ 256ns) must dominate.
	if latency(12) <= latency(2)+sim.Duration(100) {
		t.Fatal("QP contention should inflate per-read time with many issuers")
	}
}

// Property: Write then Read round-trips arbitrary payloads at arbitrary
// valid offsets.
func TestWriteReadRoundTripProperty(t *testing.T) {
	f := func(data []byte, off uint8) bool {
		if len(data) == 0 {
			return true
		}
		env := sim.NewEnv(3)
		defer env.Close()
		_, b, qa, _ := pair(env)
		mr := b.RegisterMemory(int(off) + len(data) + 1)
		h := mr.Handle()
		got := make([]byte, len(data))
		ok := true
		env.Go("c", func(p *sim.Proc) {
			if err := qa.Write(p, h, int(off), data); err != nil {
				ok = false
				return
			}
			if err := qa.Read(p, h, int(off), got); err != nil {
				ok = false
			}
		})
		env.RunAll()
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerRecordsDataPath(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	a, b, qa, _ := pair(env)
	ring := trace.NewRing(64)
	a.SetTracer(ring)
	mr := b.RegisterMemory(64)
	h := mr.Handle()
	env.Go("c", func(p *sim.Proc) {
		_ = qa.Write(p, h, 0, make([]byte, 16))
		_ = qa.Read(p, h, 0, make([]byte, 8))
		_ = qa.Send(p, make([]byte, 4))
	})
	env.RunAll()
	if a.tracer != ring {
		t.Fatal("tracer not attached")
	}
	events := ring.Events()
	if len(events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(events))
	}
	kinds := []trace.Kind{trace.Write, trace.Read, trace.Send}
	sizes := []int{16, 8, 4}
	for i, e := range events {
		if e.Kind != kinds[i] || e.Bytes != sizes[i] {
			t.Fatalf("event %d = %+v", i, e)
		}
		if e.End <= e.Start {
			t.Fatalf("event %d has no duration", i)
		}
		if e.Src != "a" || e.Dst != "b" {
			t.Fatalf("event %d endpoints: %s -> %s", i, e.Src, e.Dst)
		}
	}
	// The responder NIC had no tracer attached: nothing recorded there.
	if b.tracer != nil {
		t.Fatal("tracer leaked to peer")
	}
}

func TestTracerRecordsDrops(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	prof := hw.ConnectX3()
	prof.LossProb = 1
	a, b := New(env, "a", prof), New(env, "b", prof)
	ring := trace.NewRing(16)
	a.SetTracer(ring)
	ua, ub := NewUD(a), NewUD(b)
	env.Go("c", func(p *sim.Proc) {
		_ = ua.SendTo(p, ub, make([]byte, 8))
	})
	env.RunAll()
	if ev := ring.Events(); len(ev) != 1 || ev[0].Kind != trace.Drop {
		t.Fatalf("drop not traced: %v", ring.Events())
	}
}
