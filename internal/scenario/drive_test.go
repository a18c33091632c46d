package scenario

// The pipelined driver: a window of posted ops per thread on the sharded
// backend, verified, accounted and bounded like the synchronous loop.

import (
	"fmt"
	"strings"
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/shard"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/trace"
	"rfp/internal/workload"
)

// pipelinedRig builds the sharded backend at depth on servers server
// machines, preloaded with values of preload bytes and driven by one
// client thread.
func pipelinedRig(t *testing.T, env *sim.Env, servers, depth, keys, preload int) (*fabric.Cluster, *Backend, []fabric.Placement) {
	t.Helper()
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	machines := []*fabric.Machine{cl.Server}
	for s := 1; s < servers; s++ {
		machines = append(machines, fabric.NewMachine(env, fmt.Sprintf("server%d", s), hw.ConnectX3()))
	}
	topo := Topology{Keys: keys, Servers: servers, Depth: depth}.withDefaults()
	placements := cl.ClientThreads(1)
	spec := specFor(BackendSharded, topo, preload, false)
	spec.PreloadValue = preload
	b, err := BuildBackend(spec, machines, placements)
	if err != nil {
		t.Fatal(err)
	}
	if want := depth * servers; b.window != want {
		t.Fatalf("window = %d, want depth x servers = %d", b.window, want)
	}
	return cl, b, placements
}

// A GET whose stored bytes were written for another key, or are empty,
// counts as corrupt even though PollOp reports no value length.
func TestPipelinedDriveFlagsForeignValues(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	const keys = 8
	cl, b, placements := pipelinedRig(t, env, 1, 4, keys, preloadValueSize)
	cl.Clients[0].Spawn("overwrite", func(p *sim.Proc) {
		val := make([]byte, preloadValueSize)
		for k := uint64(0); k < keys; k++ {
			v := val[:0] // odd keys: an empty value
			if k%2 == 0 {
				v = val // even keys: the next key's value
				workload.FillValue(v, k+1, 0)
			}
			if err := b.Conns[0].Put(p, k, v); err != nil {
				t.Errorf("put %d: %v", k, err)
			}
		}
	})
	env.Run(sim.Time(sim.Millisecond))
	obs, _ := Drive(env, b, placements, []Phase{{Name: "gets", Duration: 50 * sim.Microsecond,
		Workload: workload.Config{Keys: keys, GetFraction: 1}}}, 1)
	if o := obs[0]; o.Issued == 0 || o.Corrupted != o.Issued {
		t.Fatalf("issued %d, corrupt %d, done %d: every GET should be corrupt", o.Issued, o.Corrupted, o.Done)
	}
}

// Each op is charged to the phase that posted it (every phase accounts for
// all it issued), and a driver never has more than its window in flight
// although its rings hold twice as many. The preload is longer than the
// workload's default 32 B PUTs, which must still verify.
func TestPipelinedDriveWindow(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	const keys = 16 // few enough that GETs find the PUTs' shorter values
	_, b, placements := pipelinedRig(t, env, 2, 2, keys, 2*preloadValueSize)
	const spans = 1 << 14
	rec := telemetry.New(telemetry.Config{SpanEvents: spans})
	b.Conns[0].(*shard.Client).SetRecorder(rec)
	// An RMW drains the window, so the phase that must drain at its end
	// has none.
	obs, _ := Drive(env, b, placements, []Phase{
		{Name: "rmw", Duration: 40 * sim.Microsecond, Workload: workload.Config{Keys: keys, GetFraction: 0.9, RMWFraction: 0.05}},
		{Name: "get-put", Duration: 40 * sim.Microsecond, Workload: workload.Config{Keys: keys, GetFraction: 0.9}},
	}, 1)
	for i := range obs {
		o := &obs[i]
		if v := Eval(Invariant{Kind: NoLost}, o); !v.OK || o.Done == 0 || o.Failed+o.Corrupted != 0 {
			t.Errorf("phase %s: %s, failed %d, corrupt %d", o.Phase, v, o.Failed, o.Corrupted)
		}
	}
	events := rec.SpanEvents()
	if len(events) == spans {
		t.Fatalf("span ring filled at %d events; the in-flight count would be partial", len(events))
	}
	inflight, peak := 0, 0
	for _, e := range events {
		switch e.Kind {
		case trace.CallPost:
			inflight++
			peak = max(peak, inflight)
		case trace.CallDone:
			inflight--
		}
	}
	if peak != b.window || inflight != 0 {
		t.Fatalf("peak in flight %d, %d left at the end; want the window %d, then 0", peak, inflight, b.window)
	}
}

// The window is the rings' capacity, not their depth: a depth-1 ring of
// capacity 4 pipelines, the ring's depth bounds what is in flight until
// SetDepth grows it, and SetExtraProcNs reaches the servers between runs.
func TestPipelinedWindowIsRingCapacity(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	const keys = 64
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	placements := cl.ClientThreads(1)
	spec := specFor(BackendSharded, Topology{Keys: keys}.withDefaults(), preloadValueSize, false)
	spec.ServerThreads = 1
	spec.DisableSpikes = true
	spec.Params.MaxDepth = 4
	b, err := BuildBackend(spec, []*fabric.Machine{cl.Server}, placements)
	if err != nil {
		t.Fatal(err)
	}
	if b.window != 4 {
		t.Fatalf("window = %d at depth 1, capacity 4; want 4", b.window)
	}
	sc := b.Conns[0].(*shard.Client)
	rec := telemetry.New(telemetry.Config{})
	sc.SetRecorder(rec)
	gets := []Phase{{Name: "gets", Duration: 50 * sim.Microsecond, Workload: workload.Config{Keys: keys, GetFraction: 1}}}
	run := func(depth int, extraNs int64) (peak int, meanNs float64) {
		sc.Server(0).Conns()[0].SetDepth(depth) // the ring is idle: applies at once
		b.SetExtraProcNs(extraNs)
		before := rec.Snapshot()
		obs, _ := Drive(env, b, placements, gets, 1)
		if o := &obs[0]; o.Done == 0 || o.Failed+o.Corrupted != 0 || o.Unfinished != 0 {
			t.Fatalf("depth %d: done %d, failed %d, corrupt %d, unfinished %d", depth, o.Done, o.Failed, o.Corrupted, o.Unfinished)
		}
		return rec.Snapshot().Delta(before).PeakOccupancy(), obs[0].Lat.Mean()
	}
	if peak, _ := run(1, 0); peak != 1 {
		t.Fatalf("peak in flight %d at depth 1, want 1", peak)
	}
	_, fast := run(4, 0)
	peak, slow := run(4, 2000)
	if peak != 4 {
		t.Fatalf("peak in flight %d at depth 4, want 4", peak)
	}
	if slow < fast+2*2000 {
		t.Fatalf("mean latency %.0f ns with 2 us extra server CPU, %.0f ns without: want at least 4 us more at depth 4", slow, fast)
	}
}

// Only the sharded backend pipelines; validate names the backend it
// refuses.
func TestValidateRejectsDepthOffSharded(t *testing.T) {
	sc, _ := Get("chaos-pipelined")
	if _, err := Run(sc, BackendJakiro, Options{Seed: 1}); err == nil {
		t.Fatal("Run accepted depth 4 on jakiro")
	}
	sc.Backends = []string{BackendSharded, BackendJakiro}
	if err := sc.validate(); err == nil || !strings.Contains(err.Error(), `"jakiro"`) {
		t.Fatalf("validate = %v, want an error naming jakiro", err)
	}
}

// A call's verbs reach the recorder at its claim, beside the call itself,
// so each phase's telemetry covers exactly the calls claimed in it,
// whatever was in flight at its boundaries: a fault-free server-reply phase
// reads one request Write per call and no Read. The transport's own fetch
// counters are folded at the same claim, so they agree with the recorder
// at every phase boundary.
func TestPhaseTelemetryCountsClaimedCallsVerbs(t *testing.T) {
	load := workload.Config{Keys: 64, GetFraction: 0.95}
	phases := []Phase{
		{Name: "trickle", Duration: 60 * sim.Microsecond, Workload: load, Active: 2},
		{Name: "crowd", Duration: 60 * sim.Microsecond, Workload: load},
		{Name: "decay", Duration: 60 * sim.Microsecond, Workload: load, Active: 3},
	}
	for _, name := range []string{BackendMemcKV, BackendJakiro} {
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv(1)
			defer env.Close()
			cl := fabric.NewCluster(env, hw.ConnectX3(), 4)
			placements := cl.ClientThreads(8)
			b, err := BuildBackend(specFor(name, Topology{Keys: 64}.withDefaults(), preloadValueSize, false),
				[]*fabric.Machine{cl.Server}, placements)
			if err != nil {
				t.Fatal(err)
			}
			if b.Record() == nil {
				t.Fatal("no recorder attached")
			}
			obs, _ := Drive(env, b, placements, phases, 1)
			for i := range obs {
				o, tel := &obs[i], &obs[i].Tel
				if o.Done == 0 || o.Failed+o.Corrupted != 0 || tel.Calls == 0 {
					t.Fatalf("phase %s: done %d, failed %d, corrupt %d, %d calls recorded",
						o.Phase, o.Done, o.Failed, o.Corrupted, tel.Calls)
				}
				if o.Stats.FetchReads != tel.Reads || o.Stats.Retries != tel.Retries {
					t.Errorf("phase %s: Stats fetch reads %d, retries %d; recorder reads %d, retries %d",
						o.Phase, o.Stats.FetchReads, o.Stats.Retries, tel.Reads, tel.Retries)
				}
				switch name {
				case BackendMemcKV:
					if tel.Writes != tel.Calls || tel.Reads != 0 {
						t.Errorf("phase %s: %d writes and %d reads for %d server-reply calls; want one write each, no read",
							o.Phase, tel.Writes, tel.Reads, tel.Calls)
					}
				case BackendJakiro:
					if tel.Reads < tel.FetchCalls || tel.FetchCalls == 0 {
						t.Errorf("phase %s: %d reads for %d fetch-mode calls", o.Phase, tel.Reads, tel.FetchCalls)
					}
				}
			}
		})
	}
}
