package experiments

// ext-crowd: the scaling-wall experiment behind endpoint multiplexing
// (DESIGN.md §13). The paper's handshake gives every logical client its own
// QP and two registered regions; at 10,000 clients that is 10,000 QPs of NIC
// state and ~10,000 pinned pages per side — the RDMAvisor/Swift scaling wall
// from PAPERS.md. This sweep accepts 100 → 10,000 logical clients twice —
// once over a pooled server (few QP pairs per client machine, ring regions
// carved from shared slabs) and once over the dedicated baseline — and
// reports throughput of a bounded active subset, the modeled per-client
// setup cost, and the registered-memory footprint of each, pooled as a
// fraction of dedicated.

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/telemetry"
)

func init() {
	register("ext-crowd", "10k logical clients: pooled endpoints vs dedicated QPs and MRs", extCrowd)
}

const (
	// Small request/response buffers: crowd connections are many and narrow
	// (the regime where per-client page-rounding dominates the footprint).
	crowdMaxReq  = 64
	crowdMaxResp = 192

	// Pool geometry: QP pairs per client machine and the shared slab size.
	crowdPoolQPs   = 4
	crowdSlabBytes = 256 << 10

	// crowdMachines spreads the logical clients over a few client machines.
	crowdMachines = 4

	// crowdActive bounds how many of the accepted clients actively issue
	// calls: throughput is a property of the driven subset, while setup cost
	// and footprint are properties of the whole crowd.
	crowdActive = 64

	// Modeled control-path costs of connection setup (not charged to virtual
	// time — Accept is instantaneous in the simulation): an MR registration
	// pins pages through the kernel, a QP connect is an out-of-band exchange.
	// The per-client setup latency reported below is ΔMRs/ΔQPs times these.
	crowdRegNs     = 10_000
	crowdConnectNs = 30_000
)

// crowdAccept accepts n logical clients round-robin over the cluster's
// client machines and returns them with their conns.
func crowdAccept(srv *core.Server, cl *fabric.Cluster, n int, params core.Params) ([]*core.Client, []*core.Conn, error) {
	clis := make([]*core.Client, n)
	conns := make([]*core.Conn, n)
	for i := 0; i < n; i++ {
		cli, conn, err := srv.TryAccept(cl.Clients[i%len(cl.Clients)], params)
		if err != nil {
			return nil, nil, err
		}
		clis[i], conns[i] = cli, conn
	}
	return clis, conns, nil
}

// crowdSetupNs is the modeled per-client setup cost for a crowd of n whose
// acceptance created the given resource deltas.
func crowdSetupNs(dMRs, dQPs, n int) float64 {
	return float64(int64(dMRs)*crowdRegNs+int64(dQPs)*crowdConnectNs) / float64(n)
}

// crowdCell is one (mode, clients) measurement.
type crowdCell struct {
	mops    float64
	setupNs float64 // modeled per-client setup cost
	res     telemetry.Resources
}

// runCrowd accepts n logical clients against a server configured with pool
// (zero = dedicated baseline) and drives an active subset for the measured
// window. Its echo loop is an RFP loop that stays outside scenario.Drive:
// the quantity under test is the footprint of n bare core connections, one
// per logical client, while a store built by scenario.BuildBackend accepts
// one per server thread and Drive spawns a proc per placement.
func runCrowd(o Options, n int, pool core.PoolConfig) crowdCell {
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, crowdMachines)
	srv := core.NewServer(cl.Server, core.ServerConfig{
		MaxRequest: crowdMaxReq, MaxResponse: crowdMaxResp, Pool: pool,
	})
	srv.AddThreads(4)

	before := srv.Resources()
	clis, conns, err := crowdAccept(srv, cl, n, core.DefaultParams())
	if err != nil {
		panic(fmt.Sprintf("ext-crowd: accept %d clients: %v", n, err))
	}
	res := srv.Resources()

	active := crowdActive
	if active > n {
		active = n
	}
	// Serve loops poll only the active subset: an idle crowd connection
	// holds resources (the quantity under test) but produces no requests,
	// and sweeping 10k empty rings would only slow the simulation down.
	for t := 0; t < 4; t++ {
		part := make([]*core.Conn, 0, active/4+1)
		for i := t; i < active; i += 4 {
			part = append(part, conns[i])
		}
		if len(part) == 0 {
			continue
		}
		own := part
		srvm := cl.Server
		srvm.Spawn(fmt.Sprintf("srv%d", t), func(p *sim.Proc) {
			core.Serve(p, own, func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
				srvm.ComputeNs(p, 150)
				return copy(resp, req)
			})
		})
	}
	ops := make([]uint64, active)
	placements := cl.ClientThreads(active)
	for i, pl := range placements {
		i := i
		cli := clis[i]
		pl.Machine.Spawn("crowd-cli", func(p *sim.Proc) {
			req := make([]byte, 32)
			out := make([]byte, crowdMaxResp)
			for c := 0; ; c++ {
				for j := range req {
					req[j] = byte(i*31 + c*17 + j)
				}
				if _, err := cli.Call(p, req, out); err != nil {
					panic(err)
				}
				ops[i]++
			}
		})
	}
	return crowdCell{
		mops: measureMOPS(env, o, sumOf(ops)),
		setupNs: crowdSetupNs(res.RegisteredMRs-before.RegisteredMRs,
			res.QPs-before.QPs, n),
		res: res,
	}
}

// extCrowd is the sweep driver.
func extCrowd(o Options) Result {
	counts := o.pick([]int{100, 1000, 4000, 10000}, []int{100, 400})
	pool := core.PoolConfig{QPs: crowdPoolQPs, SlabBytes: crowdSlabBytes}

	mops := &stats.Series{Label: "pooled-MOPS", XLabel: "logical clients", YLabel: "MOPS"}
	ratio := &stats.Series{Label: "footprint-ratio-%"}
	rows := []string{fmt.Sprintf("%-9s%14s%14s%14s%12s%12s%14s%14s%12s",
		"clients", "pooled-KB", "dedic-KB", "ratio-%", "pooled-QP", "dedic-QP",
		"pooled-setup", "dedic-setup", "MOPS")}
	var memory []MemorySample
	for _, n := range counts {
		pooled := runCrowd(o, n, pool)
		dedic := runCrowd(o, n, core.PoolConfig{})
		r := 100 * float64(pooled.res.RegisteredBytes) / float64(dedic.res.RegisteredBytes)
		mops.Add(float64(n), pooled.mops)
		ratio.Add(float64(n), r)
		rows = append(rows, fmt.Sprintf("%-9d%14.1f%14.1f%14.1f%12d%12d%12.1fus%12.1fus%12.3f",
			n, float64(pooled.res.RegisteredBytes)/1024, float64(dedic.res.RegisteredBytes)/1024,
			r, pooled.res.QPs, dedic.res.QPs,
			pooled.setupNs/1e3, dedic.setupNs/1e3, pooled.mops))
		memory = append(memory,
			MemorySample{Label: "pooled", Clients: n, Resources: pooled.res},
			MemorySample{Label: "dedicated", Clients: n, Resources: dedic.res})
	}
	return Result{
		ID: "ext-crowd", Title: "endpoint/MR pooling vs per-client QPs and regions (echo, 32 B)",
		Series: []*stats.Series{mops, ratio},
		Rows:   rows,
		Memory: memory,
		Notes: []string{
			fmt.Sprintf("pooled: %d QP pairs per client machine, ring regions carved from %d KB slabs; dedicated: the paper's one-QP-two-MRs-per-client handshake, page-rounded as an RNIC pins it", crowdPoolQPs, crowdSlabBytes>>10),
			fmt.Sprintf("throughput drives the first %d accepted clients; setup latency is modeled from control-path MR/QP counts (%d ns per registration, %d ns per connect)", crowdActive, crowdRegNs, crowdConnectNs),
		},
	}
}
