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
// client thread on each of clients client machines, on a production-sized
// lease (100us): under saturating load the failover-tuned 20us default
// expires leases on heartbeat jitter alone, demoting followers for no
// failure. Serve-side correctness never depends on the lease length, only
// failover latency does — and nothing fails here.
func replicaGroup(o Options, clients, followers int, localReads bool) (*sim.Env, *scenario.Backend, []fabric.Placement) {
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
	placements := cl.ClientThreads(clients)
	b, err := scenario.BuildBackend(spec, nodes, placements)
	if err != nil {
		panic(fmt.Sprintf("ext-replica: %v", err))
	}
	return env, b, placements
}

// runReplicaRead measures aggregate GET throughput (MOPS) of a group with
// the given follower count under a pure-GET load from replicaClients
// synchronous clients.
func runReplicaRead(o Options, followers int, localReads bool) float64 {
	env, b, placements := replicaGroup(o, replicaClients, followers, localReads)
	defer env.Close()
	w := driveWindow(env, b, placements, o, workload.Config{Keys: replicaKeys, GetFraction: 1}, "ext-replica reads")
	return mops(w)
}

// runReplicaPut measures the mean acked quorum-write latency (us) with a
// single synchronous writer — the unloaded cost of one prepare fan-out plus
// the all-active-acks commit rule, isolated from read traffic.
func runReplicaPut(o Options, followers int) float64 {
	env, b, placements := replicaGroup(o, 1, followers, false)
	defer env.Close()
	w := driveWindow(env, b, placements, o, workload.Config{Keys: replicaKeys}, "ext-replica writes")
	return w.Lat.Mean() / 1e3
}
