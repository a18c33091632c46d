package pilafkv

import (
	"reflect"
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

type rig struct {
	env *sim.Env
	cl  *fabric.Cluster
	srv *Server
}

func newRig(t *testing.T, clients int, cfg Config) *rig {
	t.Helper()
	env := sim.NewEnv(41)
	t.Cleanup(env.Close)
	cl := fabric.NewCluster(env, hw.ConnectX3(), clients)
	return &rig{env: env, cl: cl, srv: NewServer(cl.Server, cfg)}
}

func TestPreloadGet(t *testing.T) {
	r := newRig(t, 1, Config{Capacity: 1000, MaxValue: 64})
	if err := r.srv.Preload(workload.Preload(workload.Config{Keys: 500}), 32); err != nil {
		t.Fatal(err)
	}
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	bad := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for k := uint64(0); k < 100; k++ {
			n, ok, err := cli.Get(p, k, out)
			if err != nil {
				t.Errorf("Get %d: %v", k, err)
				return
			}
			if !ok || !workload.CheckValue(out[:n], k, 0) {
				bad++
			}
		}
	})
	r.env.Run(sim.Time(5 * sim.Millisecond))
	if bad != 0 {
		t.Fatalf("%d/100 preloaded keys unreadable via bypass GET", bad)
	}
}

func TestGetMiss(t *testing.T) {
	r := newRig(t, 1, Config{Capacity: 100, MaxValue: 64})
	_ = r.srv.Preload(workload.Preload(workload.Config{Keys: 10}), 32)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var found, ran bool
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		_, found, _ = cli.Get(p, 9999, make([]byte, 8))
		ran = true
	})
	r.env.Run(sim.Time(sim.Millisecond))
	if !ran || found {
		t.Fatalf("ran=%v found=%v", ran, found)
	}
}

func TestPutThenGet(t *testing.T) {
	r := newRig(t, 1, Config{Capacity: 100, MaxValue: 64})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var got []byte
	var found bool
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		if err := cli.Put(p, 3, []byte("pilaf-val")); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		out := make([]byte, 64)
		n, ok, err := cli.Get(p, 3, out)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		found = ok
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if !found || string(got) != "pilaf-val" {
		t.Fatalf("found=%v got=%q", found, got)
	}
}

func TestUpdateBumpsVersion(t *testing.T) {
	r := newRig(t, 1, Config{Capacity: 100, MaxValue: 64})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var got []byte
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		_ = cli.Put(p, 3, []byte("v1"))
		_ = cli.Put(p, 3, []byte("v2-longer"))
		out := make([]byte, 64)
		n, _, _ := cli.Get(p, 3, out)
		got = append([]byte(nil), out[:n]...)
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if string(got) != "v2-longer" {
		t.Fatalf("got %q", got)
	}
	e, _, ok := r.srv.Table().Lookup(workload.EncodeKey(make([]byte, workload.KeySize), 3))
	if !ok || e.Version != 2 {
		t.Fatalf("version = %d, want 2", e.Version)
	}
}

func TestAccessAmplification(t *testing.T) {
	// The package's raison d'être: GETs need multiple RDMA reads. At 75%
	// fill expect ~2-3.5 reads per GET (Pilaf reports 3.2).
	r := newRig(t, 1, Config{Capacity: 2000, MaxValue: 64})
	_ = r.srv.Preload(workload.Preload(workload.Config{Keys: 1500}), 32)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		for i := 0; i < 500; i++ {
			if _, ok, err := cli.Get(p, uint64(i*3%1500), out); err != nil || !ok {
				t.Errorf("Get: ok=%v err=%v", ok, err)
				return
			}
		}
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))
	rpg := cli.Stats.ReadsPerGet()
	if rpg < 1.8 || rpg > 3.6 {
		t.Fatalf("reads per GET = %.2f, want 2-3.5 (bypass amplification)", rpg)
	}
}

func TestConcurrentWriteConflictsDetected(t *testing.T) {
	// A reader hammering a key that a writer keeps updating must always see
	// either the old or the new value — never a torn mix — and should
	// observe some CRC retries along the way.
	r := newRig(t, 2, Config{Capacity: 100, MaxValue: 256})
	_ = r.srv.Preload([]uint64{7}, 200)
	cliR := r.srv.NewClient(r.cl.Clients[0])
	cliW := r.srv.NewClient(r.cl.Clients[1])
	r.srv.Start()
	version := uint32(0)
	r.cl.Clients[1].Spawn("writer", func(p *sim.Proc) {
		val := make([]byte, 200)
		for v := uint32(1); ; v++ {
			workload.FillValue(val, 7, v)
			if err := cliW.Put(p, 7, val); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			version = v
		}
	})
	corrupt := 0
	reads := 0
	r.cl.Clients[0].Spawn("reader", func(p *sim.Proc) {
		out := make([]byte, 256)
		for i := 0; i < 400; i++ {
			n, ok, err := cliR.Get(p, 7, out)
			if err != nil || !ok {
				t.Errorf("Get: ok=%v err=%v", ok, err)
				return
			}
			reads++
			// Accept any version the writer has (or is about to have)
			// published; reject torn mixtures.
			valid := false
			for v := int(version) + 1; v >= 0 && v >= int(version)-3; v-- {
				if workload.CheckValue(out[:n], 7, uint32(v)) {
					valid = true
					break
				}
			}
			if !valid {
				corrupt++
			}
		}
	})
	r.env.Run(sim.Time(20 * sim.Millisecond))
	if reads != 400 {
		t.Fatalf("completed %d/400 reads", reads)
	}
	if corrupt > 0 {
		t.Fatalf("%d torn values slipped past the CRC machinery", corrupt)
	}
	if cliR.Stats.TornExtents+cliR.Stats.TornSlots+cliR.Stats.Restarts == 0 {
		t.Fatal("heavy write conflict produced zero detected retries — torn-read window not exercised")
	}
}

func TestStoreFull(t *testing.T) {
	r := newRig(t, 1, Config{Capacity: 4, MaxValue: 32})
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	var lastErr error
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		for k := uint64(0); k < 10; k++ {
			if err := cli.Put(p, k, []byte("v")); err != nil {
				lastErr = err
				return
			}
		}
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if lastErr == nil {
		t.Fatal("overfilling the extent region should fail PUTs")
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRig(t, 1, Config{Capacity: 100, MaxValue: 64})
	_ = r.srv.Preload([]uint64{1, 2, 3}, 32)
	cli := r.srv.NewClient(r.cl.Clients[0])
	r.srv.Start()
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		out := make([]byte, 64)
		_, _, _ = cli.Get(p, 1, out)
		_ = cli.Put(p, 4, []byte("x"))
	})
	r.env.Run(sim.Time(2 * sim.Millisecond))
	if cli.Stats.Gets != 1 || cli.Stats.Puts != 1 {
		t.Fatalf("stats = %+v", cli.Stats)
	}
	if cli.Stats.SlotReads == 0 || cli.Stats.DataReads != 1 {
		t.Fatalf("read counters = %+v", cli.Stats)
	}
	if ClientStats.ReadsPerGet(ClientStats{}) != 0 {
		t.Fatal("ReadsPerGet on empty stats")
	}
}

// TestClientStatsAddCoversEveryField: Add sums every counter, so one added
// to ClientStats later cannot be silently dropped from aggregates (the same
// guard core.ClientStats has).
func TestClientStatsAddCoversEveryField(t *testing.T) {
	var a, b ClientStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("ClientStats.%s has kind %v: teach Add and this test about it",
				av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetUint(uint64(1000 + i))
		bv.Field(i).SetUint(uint64(5 + 2*i))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(1005+3*i); got != want {
			t.Errorf("Add: %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
