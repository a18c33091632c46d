package scenario

// Registry and end-to-end matrix tests: every seed scenario runs on every
// declared backend as a plain `go test`, with the same-seed replay
// invariant evaluated (Verify runs each pair twice).

import (
	"sort"
	"strings"
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/faults"
	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

func TestRegistrySeeds(t *testing.T) {
	names := Names()
	want := []string{
		"chaos",
		"chaos-pipelined",
		"flash-crowd",
		"replica-failover",
		"rolling-restart",
		"slow-nic-straggler",
		"tenant-mix-shift",
		"zipf-hotkey-migration",
	}
	if len(names) != len(want) || !sort.StringsAreSorted(names) {
		t.Fatalf("Names() = %v, want sorted %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		sc, ok := Get(n)
		if !ok {
			t.Fatalf("Get(%q) missing", n)
		}
		// A pipelined topology runs on the sharded backend only.
		if len(sc.Backends) < 2 && sc.Topology.Depth <= 1 {
			t.Errorf("%s declares %d backends, want >= 2", n, len(sc.Backends))
		}
		for _, be := range sc.Backends {
			if !knownBackend(be) {
				t.Errorf("%s declares unknown backend %q", n, be)
			}
		}
		if !sc.declares(Replay) {
			t.Errorf("%s does not declare the replay invariant", n)
		}
	}
	if _, ok := Get("no-such-scenario"); ok {
		t.Error("Get of unknown scenario reported ok")
	}
}

func TestRegisterRejects(t *testing.T) {
	valid := Scenario{
		Name:     "x",
		Topology: Topology{},
		Backends: []string{BackendJakiro},
		Phases: []Phase{
			{Name: "p", Duration: 10 * sim.Microsecond, Workload: workload.Config{GetFraction: 1}},
		},
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"duplicate name", func(sc *Scenario) { sc.Name = "flash-crowd" }},
		{"no phases", func(sc *Scenario) { sc.Phases = nil }},
		{"no backends", func(sc *Scenario) { sc.Backends = nil }},
		{"unknown backend", func(sc *Scenario) { sc.Backends = []string{"bogus"} }},
		{"zero duration", func(sc *Scenario) { sc.Phases[0].Duration = 0 }},
		{"replica backend without linearizable invariant",
			func(sc *Scenario) { sc.Backends = []string{BackendReplica} }},
		{"linearizable invariant without replica backend",
			func(sc *Scenario) { sc.Invariants = []Invariant{{Kind: Linearizable}} }},
		// One server is named "server"; "server0" exists only with several.
		{"crash window on a machine outside the topology", func(sc *Scenario) {
			sc.Phases[0].Faults.Crashes = []faults.Window{{Machine: "server0", Start: 1, End: 2}}
		}},
		{"invalidation on a machine outside the topology", func(sc *Scenario) {
			sc.Phases[0].Faults.Invalidations = []faults.Invalidation{{Machine: "client4", At: 1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := valid
			sc.Phases = append([]Phase(nil), valid.Phases...)
			tc.mut(&sc)
			defer func() {
				if recover() == nil {
					t.Fatalf("Register accepted %s", tc.name)
				}
			}()
			Register(sc)
		})
	}
}

// TestMatrixSerial is the acceptance matrix: every scenario x declared
// backend on the serial kernel, with the replay invariant evaluated.
func TestMatrixSerial(t *testing.T) {
	for _, name := range Names() {
		sc, _ := Get(name)
		for _, be := range sc.Backends {
			be := be
			t.Run(name+"/"+be, func(t *testing.T) {
				rep, err := Verify(sc, be, Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Replay == nil {
					t.Fatal("Verify did not evaluate the replay invariant")
				}
				if !rep.OK() {
					t.Fatalf("scenario failed:\n%s", rep.Render())
				}
			})
		}
	}
}

// Different seeds must actually change the run (the digest is a replay
// witness, not a constant).
func TestSeedChangesDigest(t *testing.T) {
	sc, _ := Get("flash-crowd")
	r1, err := Run(sc, sc.Backends[0], Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc, sc.Backends[0], Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest() == r2.Digest() {
		t.Fatal("seed 1 and seed 2 produced identical digests")
	}
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	sc, _ := Get("flash-crowd")
	if _, err := Run(sc, "bogus", Options{Seed: 1}); err == nil {
		t.Fatal("Run accepted an unknown backend")
	}
}

// A plan naming a machine the topology does not have is a declaration
// error from Run, not a panic out of the injector install.
func TestRunRejectsUnknownFaultMachine(t *testing.T) {
	sc, _ := Get("rolling-restart")
	sc.Phases = append([]Phase(nil), sc.Phases...)
	for i := range sc.Phases {
		if len(sc.Phases[i].Faults.Crashes) > 0 {
			sc.Phases[i].Faults.Crashes = []faults.Window{{Machine: "ghost", Start: 1, End: 2}}
		}
	}
	_, err := Run(sc, sc.Backends[0], Options{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), `unknown machine "ghost"`) {
		t.Fatalf("Run error = %v, want one naming the unknown machine", err)
	}
}

// The report must carry a fault-trace witness exactly when the scenario
// injects faults.
func TestFaultTraceWitness(t *testing.T) {
	sc, _ := Get("rolling-restart")
	rep, err := Run(sc, sc.Backends[0], Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultEvents == 0 || rep.FaultDigest == 0 {
		t.Fatalf("rolling-restart trace witness empty: events=%d digest=%016x",
			rep.FaultEvents, rep.FaultDigest)
	}
	if !strings.Contains(rep.Render(), "fault trace:") {
		t.Fatal("report does not render the fault trace line")
	}

	clean, _ := Get("flash-crowd")
	crep, err := Run(clean, clean.Backends[0], Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if crep.FaultEvents != 0 {
		t.Fatalf("fault-free scenario recorded %d fault events", crep.FaultEvents)
	}
}

// TestEveryBackendBuildsAndServes walks the builder's every branch on the
// smallest topology: each name in Backends(), filled by specFor, must stand
// up on one client thread (two server machines, for the backends that
// spread) and serve one PUT, then one GET of the same key — a preloaded
// key and one past the preload.
func TestEveryBackendBuildsAndServes(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv(3)
			defer env.Close()
			cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
			servers := []*fabric.Machine{cl.Server, fabric.NewMachine(env, "server1", hw.ConnectX3())}
			topo := Topology{Keys: 64}.withDefaults()
			b, err := BuildBackend(specFor(name, topo, 48, false), servers, cl.ClientThreads(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Conns) != 1 || b.Conns[0] == nil {
				t.Fatalf("Conns = %v, want one client", b.Conns)
			}
			served := 0
			cl.Clients[0].Spawn("probe", func(p *sim.Proc) {
				out := make([]byte, 64)
				// A value over MaxValue is refused before anything is sent;
				// the PUT+GET pairs after it are still served.
				if err := b.Conns[0].Put(p, 5, make([]byte, b.maxValue+1)); err == nil {
					t.Errorf("put of %d B over MaxValue %d: no error", b.maxValue+1, b.maxValue)
				}
				val := make([]byte, 48)
				for _, key := range []uint64{5, 70} {
					workload.FillVersioned(val, key, 9)
					if err := b.Conns[0].Put(p, key, val); err != nil {
						t.Errorf("put %d: %v", key, err)
						return
					}
					n, found, err := b.Conns[0].Get(p, key, out)
					if err != nil || !found || string(out[:n]) != string(val) {
						t.Errorf("get %d = %d B, found=%v, err=%v; want the 48 B just put", key, n, found, err)
						return
					}
					served++
				}
			})
			env.Run(sim.Time(5 * sim.Millisecond))
			if served != 2 {
				t.Fatalf("served %d of 2 PUT+GET pairs", served)
			}
			// Every backend whose clients are RFP clients records telemetry
			// and counts calls.
			rfpClients := name != BackendPilafKV && !replicaBackend(name)
			if recorded := b.Record() != nil; recorded != rfpClients {
				t.Errorf("Record attached a recorder = %v", recorded)
			}
			if calls := b.Stats().Calls; (calls > 0) != rfpClients {
				t.Errorf("Stats().Calls = %d", calls)
			}
		})
	}
}
