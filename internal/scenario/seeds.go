package scenario

// The seed scenarios. Each is pure declaration — topology, phases,
// fault plans, backends, invariants — registered at init so the whole
// matrix is visible to `go test ./internal/scenario/...` and cmd/rfpsim.
//
// Bounds are calibrated against the simulated ConnectX-3 profile at the
// declared scales with comfortable margins (roughly 2x off the measured
// values), so they catch regressions in the modeled systems, not noise.

import (
	"rfp/internal/dist"
	"rfp/internal/faults"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// base asserts the harness-level contract every scenario shares: complete
// accounting, verified values, resolved drivers, byte-identical replay.
func base() []Invariant {
	return []Invariant{
		{Kind: NoLost},
		{Kind: NoCorruption},
		{Kind: AllResolved},
		{Kind: Replay},
	}
}

// chaosPhases is the chaos scenarios' fault sweep: the empty plan, light
// and heavy faulting, a 150us server crash under the light plan, then a
// fault-free recovery. rate, the fault-free throughput floor in ops/ms,
// scales the other floors; terminal failures are bounded where faults are
// injected and forbidden where none are.
func chaosPhases(rate float64) []Phase {
	light := faults.Plan{DropProb: 0.01, DelayProb: 0.03, CorruptProb: 0.01}
	heavy := faults.Plan{DropProb: 0.05, DelayProb: 0.05, CorruptProb: 0.03, QPErrorProb: 0.002}
	crash := light
	crash.Crashes = []faults.Window{{Machine: "server", Start: 50_000, End: 200_000}}
	wl := workload.Config{GetFraction: 0.9}
	phase := func(name string, us int64, pl faults.Plan, floor, failed float64) Phase {
		return Phase{Name: name, Duration: sim.Duration(us) * sim.Microsecond, Workload: wl, Faults: pl,
			Invariants: []Invariant{{Kind: ThroughputFloor, Bound: floor}, {Kind: MaxFailedFrac, Bound: failed}}}
	}
	return []Phase{
		phase("none", 200, faults.Plan{}, rate, 0),
		phase("light", 300, light, rate/3, 0.01),
		phase("heavy", 300, heavy, rate/8, 0.1),
		phase("crash", 400, crash, rate/6, 0.1),
		phase("recovered", 200, faults.Plan{}, rate/4, 0),
	}
}

func init() {
	// chaos: every client thread calls through seeded fault plans of
	// rising severity and a whole-server crash. The recovery path must
	// lose nothing, accept no damaged value and leave no driver stuck,
	// and the run must replay byte for byte from its seed.
	Register(Scenario{
		Name:       "chaos",
		Desc:       "fault sweep none -> light -> heavy -> server crash -> recovered, one call in flight per thread",
		Topology:   Topology{ClientMachines: 6, Threads: 6},
		Backends:   []string{BackendJakiro, BackendServerReply},
		Phases:     chaosPhases(900),
		Invariants: base(),
	})

	// chaos-pipelined: the same sweep with every thread keeping four ops
	// posted on a depth-4 ring: handles in flight when a fault or the
	// crash strikes must all resolve, and none may resolve to another
	// op's value.
	Register(Scenario{
		Name:       "chaos-pipelined",
		Desc:       "the chaos sweep with four ops in flight per thread (depth-4 rings)",
		Topology:   Topology{ClientMachines: 6, Threads: 6, Depth: 4},
		Backends:   []string{BackendSharded},
		Phases:     chaosPhases(2700),
		Invariants: base(),
	})

	// flash-crowd: a tenant's client population explodes onto a pooled
	// server — two quiet threads, then the full population arriving over a
	// linear ramp, then decay. The surge must not lose calls, and the
	// steady tail after the ramp must stay bounded.
	Register(Scenario{
		Name: "flash-crowd",
		Desc: "client population surge onto pooled endpoints: trickle, ramped crowd, decay",
		Topology: Topology{
			Threads: 8,
			Pooled:  true,
		},
		Backends: []string{BackendJakiro, BackendMemcKV},
		Phases: []Phase{
			{
				Name:     "trickle",
				Duration: 150 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.95},
				Active:   2,
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 40},
					{Kind: ThroughputFloor, Bound: 150},
				},
			},
			{
				Name:     "crowd",
				Duration: 300 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.95},
				RampNs:   150_000,
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 120},
					{Kind: ThroughputFloor, Bound: 400},
				},
			},
			{
				Name:     "decay",
				Duration: 150 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.95},
				Active:   3,
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 60},
					{Kind: ThroughputFloor, Bound: 250},
				},
			},
		},
		Invariants: base(),
	})

	// zipf-hotkey-migration: a skewed working set whose hot keys relocate
	// mid-run (KeyOffset rotates the popularity ranking). Throughput and
	// tail must survive the migration — the stores hash keys, so a hot-set
	// move must not find a cold spot.
	Register(Scenario{
		Name: "zipf-hotkey-migration",
		Desc: "Zipf(.99) working set whose hot keys relocate mid-run, then turn write-heavy",
		Topology: Topology{
			Threads: 8,
		},
		Backends: []string{BackendJakiro, BackendPilafKV},
		Phases: []Phase{
			{
				Name:     "warm",
				Duration: 200 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.95, ZipfTheta: 0.99},
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 80},
					{Kind: ThroughputFloor, Bound: 400},
				},
			},
			{
				Name:     "migrated",
				Duration: 200 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.95, ZipfTheta: 0.99, KeyOffset: 2048},
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 80},
					{Kind: ThroughputFloor, Bound: 400},
				},
			},
			{
				Name:     "churn",
				Duration: 200 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.5, RMWFraction: 0.25, ZipfTheta: 0.99, KeyOffset: 2048},
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 120},
					{Kind: ThroughputFloor, Bound: 250},
				},
			},
		},
		Invariants: base(),
	})

	// rolling-restart: the server fails and restarts mid-run while clients
	// keep issuing (store data survives a restart; registrations do not).
	// The recovery path must absorb the outage — bounded terminal failures
	// during the window, full throughput and zero failures after it.
	Register(Scenario{
		Name: "rolling-restart",
		Desc: "server crash + restart under load; clients must reconnect and recover",
		Topology: Topology{
			Threads: 6,
		},
		Backends: []string{BackendJakiro, BackendServerReply},
		Phases: []Phase{
			{
				Name:     "steady",
				Duration: 150 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.9},
				Invariants: []Invariant{
					{Kind: MaxFailedFrac, Bound: 0},
					{Kind: ThroughputFloor, Bound: 300},
				},
			},
			{
				Name:     "restart",
				Duration: 400 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.9},
				Faults: faults.Plan{
					DropProb:  0.002,
					TimeoutNs: 8000,
					Crashes: []faults.Window{
						{Machine: "server", Start: 100_000, End: 180_000},
					},
				},
				Invariants: []Invariant{
					{Kind: MaxFailedFrac, Bound: 0.9},
					{Kind: MaxDemotions, Bound: 6},
				},
			},
			{
				Name:     "recovered",
				Duration: 200 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.9},
				Invariants: []Invariant{
					{Kind: MaxFailedFrac, Bound: 0},
					{Kind: ThroughputFloor, Bound: 250},
				},
			},
		},
		Invariants: base(),
	})

	// tenant-mix-shift: the aggregate workload pivots from a read-heavy
	// tenant to a write-heavy one to an RMW-heavy one with larger values —
	// the op-mix knobs a multi-tenant store sees during the day. Two
	// server machines so the sharded backend actually shards.
	Register(Scenario{
		Name: "tenant-mix-shift",
		Desc: "op mix pivots read-heavy -> write-heavy -> RMW-heavy with larger values",
		Topology: Topology{
			Threads: 8,
			Servers: 2,
		},
		Backends: []string{BackendJakiro, BackendSharded},
		Phases: []Phase{
			{
				Name:     "read-tenant",
				Duration: 200 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.95},
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 80},
					{Kind: ThroughputFloor, Bound: 400},
				},
			},
			{
				Name:     "write-tenant",
				Duration: 200 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.5, ValueSize: dist.Uniform{Lo: 16, Hi: 128}},
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 120},
					{Kind: ThroughputFloor, Bound: 300},
				},
			},
			{
				Name:     "rmw-tenant",
				Duration: 200 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.3, RMWFraction: 0.5, ValueSize: dist.Uniform{Lo: 16, Hi: 128}},
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 160},
					{Kind: ThroughputFloor, Bound: 200},
				},
			},
		},
		Invariants: base(),
	})

	// replica-failover: the quorum-replicated store loses its leader
	// mid-run. A follower must wait out the lease, win the epoch election
	// and take over writes while follower local reads keep serving; the
	// recorded operation history must certify linearizable across the
	// crash, the election and the old leader's rejoin.
	Register(Scenario{
		Name: "replica-failover",
		Desc: "leader crash in a 3-node quorum group; election + rejoin under a linearizability check",
		Topology: Topology{
			ClientMachines: 2,
			Threads:        4,
			Servers:        3,
			Keys:           48,
		},
		Backends: []string{BackendReplica, BackendReplicaLeader},
		Phases: []Phase{
			{
				Name:     "steady",
				Duration: 150 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.7},
				Invariants: []Invariant{
					{Kind: MaxFailedFrac, Bound: 0},
					{Kind: ThroughputFloor, Bound: 40},
				},
			},
			{
				Name:     "failover",
				Duration: 500 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.7},
				Faults: faults.Plan{
					Crashes: []faults.Window{
						{Machine: "server0", Start: 100_000, End: 260_000},
					},
				},
				Invariants: []Invariant{
					{Kind: MaxFailedFrac, Bound: 0.9},
				},
			},
			{
				Name:     "recovered",
				Duration: 250 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.7},
				Invariants: []Invariant{
					{Kind: MaxFailedFrac, Bound: 0.1},
					{Kind: ThroughputFloor, Bound: 30},
				},
			},
		},
		Invariants: append(base(), Invariant{Kind: Linearizable}),
	})

	// slow-nic-straggler: one client machine's NIC runs 4x slower with
	// extra wire latency. The straggler must not drag the cluster down —
	// aggregate throughput holds — and every call still accounts and
	// verifies (the tail bound is cluster-wide and absorbs the straggler).
	Register(Scenario{
		Name: "slow-nic-straggler",
		Desc: "one client machine on a degraded NIC; cluster throughput must hold",
		Topology: Topology{
			Threads: 8,
			Slow:    &SlowNIC{Client: 0, EngineScale: 4, ExtraPropagationNs: 1500},
		},
		Backends: []string{BackendJakiro, BackendPilafKV},
		Phases: []Phase{
			{
				Name:     "steady",
				Duration: 300 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.95},
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 120},
					{Kind: ThroughputFloor, Bound: 350},
				},
			},
			{
				Name:     "write-burst",
				Duration: 200 * sim.Microsecond,
				Workload: workload.Config{GetFraction: 0.6},
				Invariants: []Invariant{
					{Kind: P99Below, Bound: 160},
					{Kind: ThroughputFloor, Bound: 300},
				},
			},
		},
		Invariants: base(),
	})
}
