package experiments

// ext-replica: read scaling of the quorum-replicated store (extension,
// DESIGN.md §16). The replicated group serves GETs two ways: every read at
// the leader (the classic primary-copy bottleneck), or at the followers —
// each holds a leader lease and serves from its local store over the RFP
// fetch path, so aggregate read capacity adds per follower while writes
// still commit on the full quorum. The experiment sweeps the follower count
// under a fixed saturating client population and reports aggregate GET
// throughput for both routing policies, plus — from a separate
// single-writer run — the quorum-write latency that pays for it.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/scenario"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/workload"
)

func init() {
	register("ext-replica", "Quorum replication: follower local reads vs leader-only reads", extReplica)
}

// replicaClients is the fixed reader population: enough concurrent
// synchronous clients that a single serving node saturates, so added
// followers buy visible capacity.
const replicaClients = 64

// replicaKeys is the preloaded key space.
const replicaKeys = 4096

func extReplica(o Options) Result {
	counts := o.pick([]int{1, 2, 3, 4}, []int{1, 2, 4})
	local := &stats.Series{Label: "follower local reads", XLabel: "followers", YLabel: "MOPS"}
	leader := &stats.Series{Label: "leader-only reads", XLabel: "followers", YLabel: "MOPS"}
	var putUs []float64
	for _, f := range counts {
		local.Add(float64(f), runReplicaRead(o, f, true))
		leader.Add(float64(f), runReplicaRead(o, f, false))
		putUs = append(putUs, runReplicaPut(o, f))
	}
	last := len(counts) - 1
	return Result{
		ID: "ext-replica", Title: fmt.Sprintf("replicated GET throughput vs follower count (%d sync clients, 32 B values)", replicaClients),
		Series: []*stats.Series{local, leader},
		Rows: []string{
			fmt.Sprintf("%-12s%20s%20s%20s", "followers", "local-read MOPS", "leader-read MOPS", "quorum PUT us"),
			func() string {
				s := ""
				for i := range counts {
					s += fmt.Sprintf("%-12d%20.2f%20.2f%20.2f\n", counts[i], local.Y[i], leader.Y[i], putUs[i])
				}
				return s[:len(s)-1]
			}(),
			fmt.Sprintf("local-read scaling %d -> %d followers: %.1fx", counts[0], counts[last], local.Y[last]/local.Y[0]),
			fmt.Sprintf("local vs leader reads at %d followers: %.1fx", counts[last], local.Y[last]/leader.Y[last]),
		},
		Notes: []string{
			"leader-only reads are bound by one serving node regardless of group size; follower local reads add one lease-guarded server per follower",
			"every PUT commits on the full quorum before acking (one prepare fan-out on the post/poll path), so the write cost grows with the group — the read capacity is what replication buys",
		},
	}
}

// replicaGroup stands up a group with the given follower count and one
// client per client machine, on a production-sized lease (100us): under
// saturating load the failover-tuned 20us default expires leases on
// heartbeat jitter alone, demoting followers for no failure. Serve-side
// correctness never depends on the lease length, only failover latency does
// — and nothing fails here.
func replicaGroup(o Options, clients, followers int, localReads bool) (*sim.Env, *fabric.Cluster, []kv.Conn) {
	env := sim.NewEnv(o.Seed)
	cl := fabric.NewCluster(env, o.Profile, clients)
	nodes := []*fabric.Machine{cl.Server}
	for i := 0; i < followers; i++ {
		nodes = append(nodes, fabric.NewMachine(env, fmt.Sprintf("follower%d", i), o.Profile))
	}
	spec := scenario.BackendSpec{
		Backend:      scenario.BackendReplicaLeader,
		Keys:         replicaKeys,
		Buckets:      2048,
		PreloadValue: 32,
		MaxValue:     64,
		Params:       core.DefaultParams(),
		LeaseNs:      100_000,
	}
	if localReads {
		spec.Backend = scenario.BackendReplica
	}
	placements := make([]fabric.Placement, clients)
	for i, m := range cl.Clients {
		placements[i] = fabric.Placement{Machine: m}
	}
	b, err := scenario.BuildBackend(spec, nodes, placements)
	if err != nil {
		panic(fmt.Sprintf("ext-replica: %v", err))
	}
	return env, cl, b.Conns
}

// runReplicaRead measures aggregate GET throughput (MOPS) of a group with
// the given follower count under a pure-GET load from replicaClients
// synchronous clients.
func runReplicaRead(o Options, followers int, localReads bool) float64 {
	env, cl, clis := replicaGroup(o, replicaClients, followers, localReads)
	defer env.Close()

	warmEnd := sim.Time(o.Warmup)
	end := warmEnd.Add(o.Window)
	gets := make([]uint64, replicaClients)
	for i, cli := range clis {
		i, cli := i, cli
		cl.Clients[i].Spawn("reader", func(p *sim.Proc) {
			gen := workload.NewGenerator(
				workload.Config{GetFraction: 1, Keys: replicaKeys},
				o.Seed*1_000_003+int64(i)+1)
			out := make([]byte, 64)
			for p.Now() < end {
				op := gen.Next()
				if _, _, err := cli.Get(p, op.Key, out); err != nil {
					panic(fmt.Sprintf("ext-replica: get: %v", err))
				}
				if p.Now() > warmEnd {
					gets[i]++
				}
			}
		})
	}
	env.Run(end)
	return float64(sumOf(gets)()) / (float64(o.Window) / 1e3)
}

// replicaPutOps is the sequential write count of the write-cost run.
const replicaPutOps = 300

// runReplicaPut measures the mean acked quorum-write latency (us) with a
// single sequential writer — the unloaded cost of one prepare fan-out plus
// the all-active-acks commit rule, isolated from read traffic.
func runReplicaPut(o Options, followers int) float64 {
	env, cl, clis := replicaGroup(o, 1, followers, false)
	defer env.Close()
	cli := clis[0]

	var totalNs uint64
	var measured uint64
	cl.Clients[0].Spawn("writer", func(p *sim.Proc) {
		val := make([]byte, 32)
		for k := 0; k < replicaPutOps; k++ {
			key := uint64(k % replicaKeys)
			workload.FillValue(val, key, 0)
			t0 := p.Now()
			if err := cli.Put(p, key, val); err != nil {
				panic(fmt.Sprintf("ext-replica: put: %v", err))
			}
			if k >= replicaPutOps/10 { // skip connection warm-up
				totalNs += uint64(p.Now().Sub(t0))
				measured++
			}
		}
	})
	env.Run(sim.Time(20 * sim.Millisecond))
	if measured == 0 {
		panic("ext-replica: writer made no progress")
	}
	return float64(totalNs) / float64(measured) / 1e3
}
