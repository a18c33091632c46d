// Package scenario is the declarative end-to-end scenario harness
// (extension, DESIGN.md §15): named, self-checking system scenarios
// declared as data — a topology, a sequence of workload phases, a
// per-phase fault plan and a set of backends — executed on the simulation
// kernel with invariant assertions evaluated from per-phase telemetry
// deltas, driver accounting and fault-trace digests. The whole matrix runs
// as plain `go test ./internal/scenario/...` with no external setup;
// cmd/rfpsim runs one scenario standalone with a phase-by-phase invariant
// report.
package scenario

import (
	"fmt"
	"sort"

	"rfp/internal/faults"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// SlowNIC degrades one client machine into a straggler: its NIC engine and
// host-CPU post/poll costs are scaled and extra one-way propagation is
// added, modeling a flaky cable, a renegotiated link or a PCIe-throttled
// NIC in an otherwise healthy cluster.
type SlowNIC struct {
	Client             int     // index of the straggler client machine
	EngineScale        float64 // multiplies OutEngineNs/InEngineNs/PostNs/PollNs (>= 1)
	ExtraPropagationNs int64   // added one-way wire latency
}

// Topology declares the simulated cluster a scenario runs on, every machine
// a ConnectX-3. The zero value takes defaults (4 client machines, 8 client
// threads, 1 server, 4096 keys, dedicated endpoints).
type Topology struct {
	ClientMachines int      // client machines (default 4)
	Threads        int      // total client threads, spread round-robin (default 8)
	Servers        int      // server machines; only the sharded backend uses > 1 (default 1)
	Keys           int      // key-space cardinality, preloaded at version 0 (default 4096)
	Slow           *SlowNIC // optional straggler override
	Pooled         bool     // multiplexed endpoints + slab MRs on RFP-based backends (DESIGN.md §13)
}

func (t Topology) withDefaults() Topology {
	if t.ClientMachines <= 0 {
		t.ClientMachines = 4
	}
	if t.Threads <= 0 {
		t.Threads = 8
	}
	if t.Servers <= 0 {
		t.Servers = 1
	}
	if t.Keys <= 0 {
		t.Keys = 4096
	}
	return t
}

// machineNames returns the names of the topology's server machines, then
// its client machines — the names fault plans address their victims by.
func (t Topology) machineNames() (servers, clients []string) {
	t = t.withDefaults()
	for s := 0; s < t.Servers; s++ {
		name := "server"
		if t.Servers > 1 {
			name = fmt.Sprintf("server%d", s)
		}
		servers = append(servers, name)
	}
	for i := 0; i < t.ClientMachines; i++ {
		clients = append(clients, fmt.Sprintf("client%d", i))
	}
	return servers, clients
}

// Phase is one workload window. Phases run back to back in declaration
// order; each re-seeds every client thread's generator at its boundary
// (workload.Generator.Reset), so a phase's operation stream depends only
// on (scenario seed, phase index, thread), never on how much the previous
// phase got through.
type Phase struct {
	Name     string
	Duration sim.Duration
	// Workload is the phase's op mix and key distribution. Keys is forced
	// to the topology's key space.
	Workload workload.Config
	// Active bounds how many of the topology's threads issue during this
	// phase (0 = all). Inactive threads idle until the next phase.
	Active int
	// RampNs staggers the active threads' start linearly across this many
	// nanoseconds at the phase boundary (workload.RampOffset) — the flash
	// crowd's arrival ramp. 0 starts everyone at once.
	RampNs int64
	// Faults is the fault plan in force during this phase (zero = none).
	// Crash windows and invalidations are relative to the phase start.
	Faults faults.Plan
	// Invariants are asserted against this phase's observations, in
	// addition to the scenario-wide ones.
	Invariants []Invariant
}

// Scenario is one named, self-checking end-to-end scenario.
type Scenario struct {
	Name string
	Desc string
	// Topology is the cluster under test.
	Topology Topology
	// Phases is the workload timeline (at least one).
	Phases []Phase
	// Backends names the systems this scenario runs against (Backends()
	// lists the valid names). The first entry is the primary backend used
	// by default in cmd/rfpsim and the determinism suite.
	Backends []string
	// Invariants apply to every phase; Replay is evaluated at the run
	// level by Verify (same seed, byte-identical report and digest).
	Invariants []Invariant
}

// validate rejects malformed declarations at registration time.
func (sc Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", sc.Name)
	}
	servers, clients := sc.Topology.machineNames()
	known := make(map[string]bool, len(servers)+len(clients))
	for _, name := range append(servers, clients...) {
		known[name] = true
	}
	for _, ph := range sc.Phases {
		if ph.Name == "" {
			return fmt.Errorf("scenario %s: unnamed phase", sc.Name)
		}
		if ph.Duration <= 0 {
			return fmt.Errorf("scenario %s: phase %s has no duration", sc.Name, ph.Name)
		}
		for _, w := range ph.Faults.Crashes {
			if !known[w.Machine] {
				return fmt.Errorf("scenario %s: phase %s crashes unknown machine %q", sc.Name, ph.Name, w.Machine)
			}
		}
		for _, iv := range ph.Faults.Invalidations {
			if !known[iv.Machine] {
				return fmt.Errorf("scenario %s: phase %s invalidates a region on unknown machine %q", sc.Name, ph.Name, iv.Machine)
			}
		}
	}
	if len(sc.Backends) == 0 {
		return fmt.Errorf("scenario %s: no backends", sc.Name)
	}
	for _, b := range sc.Backends {
		if !knownBackend(b) {
			return fmt.Errorf("scenario %s: unknown backend %q (have %v)", sc.Name, b, Backends())
		}
	}
	// The replicated backends preload versioned values and are driven by
	// the history recorder; the linearizability checker is what gives those
	// histories meaning. Couple them both ways so a declaration cannot
	// silently run unchecked (or check an uninstrumented store).
	linz := sc.wantsLinz()
	for _, b := range sc.Backends {
		if replicaBackend(b) != linz {
			if linz {
				return fmt.Errorf("scenario %s: linearizable invariant requires replica backends, got %q", sc.Name, b)
			}
			return fmt.Errorf("scenario %s: backend %q requires the linearizable invariant", sc.Name, b)
		}
	}
	return nil
}

// hasFaults reports whether any phase injects anything.
func (sc Scenario) hasFaults() bool {
	for _, ph := range sc.Phases {
		if ph.Faults.Enabled() {
			return true
		}
	}
	return false
}

// registry holds the named scenarios.
var registry = map[string]Scenario{}

// Register adds a scenario to the registry; invalid or duplicate
// declarations panic at init time, so a broken seed scenario fails the
// whole test binary rather than silently vanishing from the matrix.
func Register(sc Scenario) {
	if err := sc.validate(); err != nil {
		panic(err.Error())
	}
	if _, dup := registry[sc.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", sc.Name))
	}
	registry[sc.Name] = sc
}

// Get returns a registered scenario by name.
func Get(name string) (Scenario, bool) {
	sc, ok := registry[name]
	return sc, ok
}

// Names returns all registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
