package scenario

// Backend builders: the systems a scenario can run against, mirroring the
// experiment harness's store construction (internal/experiments.RunKV) but
// built onto an externally assembled cluster so scenarios can use custom
// topologies (multiple servers, straggler NICs, pooled endpoints).

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
	"rfp/internal/sim"
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
// backends. They preload versioned values (workload.FillVersioned) and are
// driven by the history-recording driver, so they pair only with scenarios
// that declare the Linearizable invariant (validate enforces both ways).
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

// conn is one client thread's synchronous handle to the store under test.
// All backends expose Get/Put with integrity-verifiable values; the driver
// builds RMW from the pair.
type conn interface {
	Get(p *sim.Proc, key uint64, out []byte) (int, bool, error)
	Put(p *sim.Proc, key uint64, value []byte) error
}

// backend is a constructed system under test: one conn per client thread,
// an aggregate stats reader, and (on RFP-based systems) a telemetry hook.
type backend struct {
	conns  []conn
	stats  func() core.ClientStats       // summed across threads, recovery block included
	attach func(rec *telemetry.Recorder) // nil when the system is not instrumented
}

// shardConn adapts a shard fan-out client to the conn interface by routing
// to the owning server's per-server client.
type shardConn struct{ c *shard.Client }

func (s shardConn) Get(p *sim.Proc, key uint64, out []byte) (int, bool, error) {
	return s.c.Server(s.c.ServerFor(key)).Get(p, key, out)
}

func (s shardConn) Put(p *sim.Proc, key uint64, value []byte) error {
	return s.c.Server(s.c.ServerFor(key)).Put(p, key, value)
}

// preloadValueSize is the warm-up value length (the paper's 32-byte
// Facebook-median value).
const preloadValueSize = 32

// scenarioParams is the transport configuration scenarios run under: paper
// defaults, plus the recovery envelope when faults are injected (the chaos
// harness's proven settings — tight deadline, fast backoff, demotion after
// 8 consecutive transport errors).
func scenarioParams(faulty bool) core.Params {
	params := core.DefaultParams()
	if faulty {
		params.DeadlineNs = 2_000_000
		params.BackoffNs = 2000
		params.DemoteAfter = 8
	}
	return params
}

// buildBackend constructs the named system on the assembled cluster:
// servers[0] is cl.Server; the sharded backend spreads over all servers.
// Clients are created before Start (connection setup precedes serving),
// one per placement.
func buildBackend(name string, topo Topology, servers []*fabric.Machine,
	placements []fabric.Placement, maxVal int, faulty bool) (*backend, error) {

	params := scenarioParams(faulty)
	keys := workload.Preload(workload.Config{Keys: topo.Keys})
	b := &backend{conns: make([]conn, len(placements))}

	switch name {
	case BackendJakiro, BackendServerReply:
		cfg := jakiro.Config{
			Threads:             4,
			BucketsPerPartition: kv.BucketsFor(topo.Keys, 4),
			MaxValue:            maxVal,
			Params:              params,
		}
		if name == BackendServerReply {
			cfg.Params.ForceReply = true
			cfg.Params.ReplyPollNs = 300
		}
		if topo.Pooled {
			cfg.Pool = core.PoolConfig{QPs: 2, SlabBytes: 256 << 10}
		}
		srv := jakiro.NewServer(servers[0], cfg)
		srv.Preload(keys, preloadValueSize)
		js := make([]*jakiro.Client, len(placements))
		for i, pl := range placements {
			js[i] = srv.NewClient(pl.Machine)
			b.conns[i] = js[i]
		}
		srv.Start()
		b.stats = func() core.ClientStats {
			var agg core.ClientStats
			for _, c := range js {
				agg.Add(c.Stats())
			}
			return agg
		}
		b.attach = func(rec *telemetry.Recorder) {
			for _, c := range js {
				c.SetRecorder(rec)
			}
		}

	case BackendSharded:
		cfg := jakiro.Config{
			Threads:             2,
			BucketsPerPartition: kv.BucketsFor(topo.Keys, 2),
			MaxValue:            maxVal,
			Params:              params,
		}
		if topo.Pooled {
			cfg.Pool = core.PoolConfig{QPs: 2, SlabBytes: 256 << 10}
		}
		srvs := make([]*jakiro.Server, len(servers))
		for s, m := range servers {
			srvs[s] = jakiro.NewServer(m, cfg)
			// Every server preloads the full key space; routing only ever
			// reads a key from its owning shard, so the extra copies are
			// inert.
			srvs[s].Preload(keys, preloadValueSize)
		}
		ss := make([]*shard.Client, len(placements))
		for i, pl := range placements {
			sc, err := shard.New(pl.Machine, srvs, false)
			if err != nil {
				return nil, fmt.Errorf("scenario: shard client: %w", err)
			}
			ss[i] = sc
			b.conns[i] = shardConn{sc}
		}
		for _, srv := range srvs {
			srv.Start()
		}
		b.stats = func() core.ClientStats {
			var agg core.ClientStats
			for _, c := range ss {
				agg.Add(c.Stats())
			}
			return agg
		}
		b.attach = func(rec *telemetry.Recorder) {
			for _, c := range ss {
				c.SetRecorder(rec)
			}
		}

	case BackendMemcKV:
		cfg := memckv.Config{Threads: 8, Buckets: kv.BucketsFor(topo.Keys, 1), MaxValue: maxVal}
		srv := memckv.NewServer(servers[0], cfg)
		srv.Preload(keys, preloadValueSize)
		ms := make([]*memckv.Client, len(placements))
		for i, pl := range placements {
			ms[i] = srv.NewClient(pl.Machine)
			b.conns[i] = ms[i]
		}
		srv.Start()
		b.stats = func() core.ClientStats {
			var agg core.ClientStats
			for _, c := range ms {
				agg.Add(c.Stats())
			}
			return agg
		}

	case BackendReplica, BackendReplicaLeader:
		cfg := replica.Config{
			Buckets:  kv.BucketsFor(topo.Keys, 1),
			MaxValue: maxVal,
		}
		if topo.Pooled {
			cfg.Pool = core.PoolConfig{QPs: 2, SlabBytes: 256 << 10}
		}
		svc, err := replica.NewService(servers, cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario: replica service: %w", err)
		}
		// Preload every key at version 0 so reads of never-written keys
		// verify under the versioned scheme.
		svc.Preload(uint64(topo.Keys), preloadValueSize)
		// Tighter per-call deadline than the chaos envelope: a call into a
		// crashed replica should fail fast so the client re-routes to the
		// survivors well inside the failover window.
		rparams := params
		if faulty {
			rparams.DeadlineNs = 150_000
			rparams.BackoffNs = 2_000
			rparams.DemoteAfter = 0
		}
		local := name == BackendReplica
		for i, pl := range placements {
			b.conns[i] = svc.NewClient(pl.Machine, rparams, local)
		}
		svc.Start()
		b.stats = func() core.ClientStats { return core.ClientStats{} }

	case BackendPilafKV:
		cfg := pilafkv.Config{Capacity: topo.Keys + 64, MaxValue: maxVal, Threads: 2}
		srv := pilafkv.NewServer(servers[0], cfg)
		if err := srv.Preload(keys, preloadValueSize); err != nil {
			return nil, fmt.Errorf("scenario: pilaf preload: %w", err)
		}
		ps := make([]*pilafkv.Client, len(placements))
		for i, pl := range placements {
			ps[i] = srv.NewClient(pl.Machine)
			b.conns[i] = ps[i]
		}
		srv.Start()
		b.stats = func() core.ClientStats { return core.ClientStats{} }

	default:
		return nil, fmt.Errorf("scenario: unknown backend %q (have %v)", name, Backends())
	}
	return b, nil
}

// recoveryOf projects the recovery block out of aggregated client stats.
func recoveryOf(s core.ClientStats) RecoveryStats {
	return RecoveryStats{
		FaultRetries: s.FaultRetries,
		Resends:      s.Resends,
		Reconnects:   s.Reconnects,
		Demotions:    s.Demotions,
		Deadlines:    s.Deadlines,
	}
}
