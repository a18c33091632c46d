package scenario

// The backend builder: the one place a store is stood up on an assembled
// cluster (config → server → preload → one client per placement → Start).
// Scenarios fill the spec from their Topology; the figure experiments
// (internal/experiments) fill it from their run descriptions.

import (
	"fmt"
	"sort"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/jakiro"
	"rfp/internal/kvstore/kv"
	"rfp/internal/kvstore/memckv"
	"rfp/internal/kvstore/pilafkv"
	"rfp/internal/replica"
	"rfp/internal/shard"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

// Backend names.
const (
	BackendJakiro        = "jakiro"         // RFP store (fetch + adaptive switch)
	BackendServerReply   = "server-reply"   // same store, forced server-reply mode
	BackendMemcKV        = "memckv"         // RDMA-Memcached model (two-sided)
	BackendPilafKV       = "pilafkv"        // Pilaf model (client-bypass GETs)
	BackendSharded       = "sharded"        // RFP store sharded over the topology's servers
	BackendReplica       = "replica"        // quorum-replicated store, follower local reads
	BackendReplicaLeader = "replica-leader" // same group, all reads at the leader
)

var backendNames = map[string]bool{
	BackendJakiro:        true,
	BackendServerReply:   true,
	BackendMemcKV:        true,
	BackendPilafKV:       true,
	BackendSharded:       true,
	BackendReplica:       true,
	BackendReplicaLeader: true,
}

// replicaBackend reports whether name is one of the replicated-store
// backends. They preload versioned values (workload.FillVersioned) and Drive
// records their history, so they pair only with scenarios that declare the
// Linearizable invariant (validate enforces both ways).
func replicaBackend(name string) bool {
	return name == BackendReplica || name == BackendReplicaLeader
}

// Backends returns the valid backend names, sorted.
func Backends() []string {
	out := make([]string, 0, len(backendNames))
	for n := range backendNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func knownBackend(name string) bool { return backendNames[name] }

// BackendSpec describes one system under test. Every field is a value some
// pair of harnesses sets differently; nothing here is optional behaviour.
type BackendSpec struct {
	Backend       string // one of Backends()
	ServerThreads int    // threads (= EREW partitions) per server machine; the replica nodes are single-threaded
	Keys          int    // key space, preloaded at version 0
	Buckets       int    // hash buckets per partition (shared table for memckv/replica); 0: kv.BucketsFor
	PreloadValue  int    // preloaded value length
	MaxValue      int    // largest value any op carries
	// Params configures every client's RFP connections; memckv's, and
	// pilafkv's PUT channel, always run in server-reply mode. On the
	// sharded backend a ring capacity over 1 (MaxDepth, which defaults to
	// Depth) makes the clients pipelined: every ring joins one core.Group
	// per client thread, and Drive keeps up to capacity ops per server in
	// flight from each, as many as the rings' current depth admits.
	Params        core.Params
	ExtraProcNs   int64 // synthetic per-request server CPU (Fig. 14/15)
	DisableSpikes bool  // no heavy-tail process-time spikes
	Pool          core.PoolConfig
	LeaseNs       int64 // replica follower lease; 0: replica's failover-tuned default
}

// Backend is a constructed system under test: one kv.Conn per placement,
// in placement order. The concrete client types (*jakiro.Client,
// *shard.Client, ...) are reachable by type assertion for harnesses that
// need more than Get/Put.
type Backend struct {
	Conns []kv.Conn

	maxValue  int                 // the spec's MaxValue: Drive sizes its buffers by it
	preload   int                 // the spec's PreloadValue: the shortest value a pipelined Drive verifies against
	window    int                 // ops each driver keeps in flight; 0: synchronous
	versioned bool                // preloaded with versioned values: Drive records and checks history
	rfpStores []*jakiro.Server    // the RFP-store servers, for SetExtraProcNs
	rec       *telemetry.Recorder // the recorder Record attached, sampled by Drive
}

// SetExtraProcNs changes the synthetic per-request server CPU of every
// RFP-store server b built (BackendSpec.ExtraProcNs) at runtime; call it
// between env.Run calls. The other backends have no such knob.
func (b *Backend) SetExtraProcNs(ns int64) {
	for _, s := range b.rfpStores {
		s.SetExtraProcNs(ns)
	}
}

// Stats sums the RFP transport statistics (recovery block included) over
// the clients that keep them; pilafkv and replica clients contribute zero.
func (b *Backend) Stats() core.ClientStats {
	var agg core.ClientStats
	for _, c := range b.Conns {
		if s, ok := c.(interface{ Stats() core.ClientStats }); ok {
			agg.Add(s.Stats())
		}
	}
	return agg
}

// Record attaches one fresh recorder to every client that records per-call
// telemetry (the RFP-store backends) and returns it; nil when none does.
// Drive samples it at every phase boundary.
func (b *Backend) Record() *telemetry.Recorder {
	b.rec = nil
	for _, c := range b.Conns {
		if r, ok := c.(interface{ SetRecorder(*telemetry.Recorder) }); ok {
			if b.rec == nil {
				b.rec = telemetry.New(telemetry.Config{})
			}
			r.SetRecorder(b.rec)
		}
	}
	return b.rec
}

// connect creates one client per placement. Clients are created before
// Start: connection setup precedes serving.
func connect[C kv.Conn](b *Backend, placements []fabric.Placement, newClient func(*fabric.Machine) C) {
	for i, pl := range placements {
		b.Conns[i] = newClient(pl.Machine)
	}
}

// BuildBackend constructs spec's system on the assembled cluster.
// servers[0] hosts the single-server stores; the sharded and replica
// backends spread over all of servers.
func BuildBackend(spec BackendSpec, servers []*fabric.Machine, placements []fabric.Placement) (*Backend, error) {
	keys := workload.Preload(workload.Config{Keys: spec.Keys})
	buckets := func(partitions int) int {
		if spec.Buckets > 0 {
			return spec.Buckets
		}
		return kv.BucketsFor(spec.Keys, partitions)
	}
	b := &Backend{Conns: make([]kv.Conn, len(placements)), maxValue: spec.MaxValue, preload: spec.PreloadValue}

	switch spec.Backend {
	case BackendJakiro, BackendServerReply, BackendSharded:
		cfg := jakiro.Config{
			Threads:             spec.ServerThreads,
			BucketsPerPartition: buckets(spec.ServerThreads),
			MaxValue:            spec.MaxValue,
			Params:              spec.Params,
			ExtraProcNs:         spec.ExtraProcNs,
			Pool:                spec.Pool,
		}
		if spec.Backend == BackendServerReply {
			cfg.Params = cfg.Params.ServerReply()
		}
		if spec.DisableSpikes {
			cfg.SpikeProb = -1
		}
		if spec.Backend != BackendSharded {
			servers = servers[:1]
		}
		// Each key is preloaded on its owning shard only (shard.For is the
		// identity on one server).
		owned := make([][]uint64, len(servers))
		kbuf := make([]byte, workload.KeySize)
		for _, k := range keys {
			s := shard.For(workload.EncodeKey(kbuf, k), len(servers))
			owned[s] = append(owned[s], k)
		}
		b.rfpStores = make([]*jakiro.Server, len(servers))
		for s, m := range servers {
			b.rfpStores[s] = jakiro.NewServer(m, cfg)
			b.rfpStores[s].Preload(owned[s], spec.PreloadValue)
		}
		if spec.Backend == BackendSharded {
			if capacity := max(spec.Params.Depth, spec.Params.MaxDepth); capacity > 1 {
				b.window = capacity * len(servers)
			}
			for i, pl := range placements {
				sc, err := shard.New(pl.Machine, b.rfpStores, b.window > 0)
				if err != nil {
					return nil, fmt.Errorf("scenario: shard client: %w", err)
				}
				b.Conns[i] = sc
			}
		} else {
			connect(b, placements, b.rfpStores[0].NewClient)
		}
		for _, srv := range b.rfpStores {
			srv.Start()
		}

	case BackendMemcKV:
		srv := memckv.NewServer(servers[0], memckv.Config{
			Threads: spec.ServerThreads, Buckets: buckets(1), MaxValue: spec.MaxValue,
			Params: spec.Params, Pool: spec.Pool})
		srv.Preload(keys, spec.PreloadValue)
		connect(b, placements, srv.NewClient)
		srv.Start()

	case BackendPilafKV:
		srv := pilafkv.NewServer(servers[0], pilafkv.Config{
			Capacity: spec.Keys + 64, MaxValue: spec.MaxValue, Threads: spec.ServerThreads,
			Params: spec.Params})
		if err := srv.Preload(keys, spec.PreloadValue); err != nil {
			return nil, fmt.Errorf("scenario: pilaf preload: %w", err)
		}
		connect(b, placements, srv.NewClient)
		srv.Start()

	case BackendReplica, BackendReplicaLeader:
		svc, err := replica.NewService(servers, replica.Config{
			Buckets: buckets(1), MaxValue: spec.MaxValue, LeaseNs: spec.LeaseNs, Pool: spec.Pool})
		if err != nil {
			return nil, fmt.Errorf("scenario: replica service: %w", err)
		}
		// Every key at version 0, so reads of never-written keys verify
		// under the versioned scheme.
		svc.Preload(uint64(spec.Keys), spec.PreloadValue)
		b.versioned = true
		local := spec.Backend == BackendReplica
		connect(b, placements, func(cm *fabric.Machine) *replica.Client {
			return svc.NewClient(cm, spec.Params, local)
		})
		svc.Start()

	default:
		return nil, fmt.Errorf("scenario: unknown backend %q (have %v)", spec.Backend, Backends())
	}
	return b, nil
}

// preloadValueSize is the warm-up value length (the paper's 32-byte
// Facebook-median value).
const preloadValueSize = 32

// scenarioThreads is the server thread count scenarios give each backend
// (deliberately small: scenarios stress behaviour under faults and load
// shifts, not peak throughput).
var scenarioThreads = map[string]int{
	BackendJakiro:      4,
	BackendServerReply: 4,
	BackendSharded:     2,
	BackendMemcKV:      8,
	BackendPilafKV:     2,
}

// specFor fills the builder spec from a scenario's topology: paper-default
// transport parameters at the topology's depth, plus the recovery envelope
// when faults are injected (tight deadline, fast backoff, demotion after 8
// consecutive transport errors — the settings the chaos scenarios prove).
func specFor(name string, topo Topology, maxVal int, faulty bool) BackendSpec {
	spec := BackendSpec{
		Backend:       name,
		ServerThreads: scenarioThreads[name],
		Keys:          topo.Keys,
		PreloadValue:  preloadValueSize,
		MaxValue:      maxVal,
		Params:        core.DefaultParams(),
	}
	spec.Params.Depth = topo.Depth
	if topo.Pooled {
		spec.Pool = core.PoolConfig{QPs: 2, SlabBytes: 256 << 10}
	}
	if faulty {
		spec.Params.DeadlineNs = 2_000_000
		spec.Params.BackoffNs = 2000
		spec.Params.DemoteAfter = 8
		if replicaBackend(name) {
			// Tighter per-call deadline than the envelope above: a call
			// into a crashed replica should fail fast so the client
			// re-routes to the survivors well inside the failover window.
			spec.Params.DeadlineNs = 150_000
			spec.Params.DemoteAfter = 0
		}
	}
	return spec
}
