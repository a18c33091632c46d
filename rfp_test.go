package rfp_test

import (
	"testing"

	"rfp"
)

// TestFacadeQuickstart exercises the package-documentation example
// end-to-end through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	env := rfp.NewEnv(1)
	defer env.Close()
	cluster := rfp.NewCluster(env, rfp.ConnectX3(), 1)
	server := rfp.NewServer(cluster.Server, rfp.ServerConfig{})
	server.AddThreads(1)
	client, conn := server.Accept(cluster.Clients[0], rfp.DefaultParams())
	cluster.Server.Spawn("srv", func(p *rfp.Proc) {
		rfp.Serve(p, []*rfp.Conn{conn}, func(p *rfp.Proc, c *rfp.Conn, req, resp []byte) int {
			return copy(resp, req)
		})
	})
	var got string
	cluster.Clients[0].Spawn("cli", func(p *rfp.Proc) {
		out := make([]byte, 64)
		n, err := client.Call(p, []byte("ping"), out)
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		got = string(out[:n])
	})
	env.Run(rfp.Time(rfp.Millisecond))
	if got != "ping" {
		t.Fatalf("echo = %q", got)
	}
	if client.Mode() != rfp.ModeFetch {
		t.Fatal("fresh connection should be in fetch mode")
	}
}

func TestFacadeCalibration(t *testing.T) {
	cal := rfp.Calibrate(rfp.ConnectX3(), 16)
	if cal.L != 256 || cal.H != 1024 || cal.N != 5 {
		t.Fatalf("calibration = L%d H%d N%d, want 256/1024/5", cal.L, cal.H, cal.N)
	}
	r, f := rfp.Select(rfp.ConnectX3(), 16, []int{32, 32, 32}, []int64{400, 500})
	if f != 256 || r < 1 || r > 5 {
		t.Fatalf("Select = R%d F%d", r, f)
	}
	if rfp.SelectF(cal, []int{32}) != 256 {
		t.Fatal("SelectF")
	}
	if got := rfp.SelectR(cal, nil); got != cal.N {
		t.Fatal("SelectR default")
	}
	s := rfp.NewSampler(4)
	s.Observe(32, 400)
	if len(s.Sizes) != 1 {
		t.Fatal("sampler")
	}
}

func TestFacadeProfiles(t *testing.T) {
	x3, x2 := rfp.ConnectX3(), rfp.ConnectX2()
	if x3.LinkGbps != 40 || x2.LinkGbps != 20 {
		t.Fatal("profiles")
	}
	if rfp.DefaultParams().R != 5 {
		t.Fatal("params")
	}
}

func TestFacadeAdvancedSurface(t *testing.T) {
	env := rfp.NewEnv(2)
	defer env.Close()
	a := rfp.NewMachine(env, "a", rfp.ConnectX3())
	b := rfp.NewMachine(env, "b", rfp.ConnectX3())
	qa, qb := rfp.Connect(a, b)
	if qa.Local() != a.NIC() || qb.Local() != b.NIC() {
		t.Fatal("Connect wiring")
	}
	ring := rfp.NewTraceRing(8)
	a.NIC().SetTracer(ring)
	mr := b.NIC().RegisterMemory(64)
	h := mr.Handle()
	a.Spawn("c", func(p *rfp.Proc) {
		if err := qa.Write(p, h, 0, []byte("via facade")); err != nil {
			t.Errorf("Write: %v", err)
		}
	})
	env.RunAll()
	if string(mr.Buf[:10]) != "via facade" {
		t.Fatal("write did not land")
	}
	if len(ring.Events()) != 1 {
		t.Fatal("trace missing")
	}
	tuner := rfp.NewTuner(rfp.Calibrate(rfp.ConnectX3(), 6), 64, 16)
	if tuner.Retunes != 0 {
		t.Fatal("fresh tuner has retuned")
	}
}
