// paramtuning: selecting RFP's R and F parameters for a custom workload.
//
// RFP's performance depends on two user-set parameters — the fetch retry
// threshold R and the default fetch size F. The paper (Sec. 3.2) bounds
// their useful ranges from hardware ([1,N] and [L,H]) and picks the optimum
// by enumeration over samples gathered in a pre-run. This example walks the
// full procedure on a service whose responses are mostly small with an
// occasional large blob:
//
//  1. calibrate the hardware (the "run benchmark once" step),
//  2. pre-run the application and sample result sizes / process times,
//  3. select (R, F),
//  4. measure throughput with naive vs selected parameters.
//
// Run with: go run ./examples/paramtuning
package main

import (
	"encoding/binary"
	"fmt"

	"rfp"
)

const (
	smallResp = 400  // common case: ~92% of responses
	largeResp = 3000 // occasional blob
)

// service answers requests with a small or large response depending on the
// request's key.
func service(p *rfp.Proc, conn *rfp.Conn, req, resp []byte) int {
	key := binary.LittleEndian.Uint64(req)
	if key%13 == 0 {
		return largeResp
	}
	return smallResp
}

// drive runs 35 client threads against the service with the given params
// for one virtual millisecond and returns achieved MOPS.
func drive(params rfp.Params, sampler *rfp.Sampler) float64 {
	env := rfp.NewEnv(9)
	defer env.Close()
	cluster := rfp.NewCluster(env, rfp.ConnectX3(), 7)
	server := rfp.NewServer(cluster.Server, rfp.ServerConfig{MaxRequest: 64, MaxResponse: 4096})
	const serverThreads = 6
	server.AddThreads(serverThreads)

	placements := cluster.ClientThreads(35)
	clients := make([]*rfp.Client, len(placements))
	for i, pl := range placements {
		clients[i], _ = server.Accept(pl.Machine, params)
	}
	server.Start(serverThreads, func(int) rfp.Handler { return service })

	ops := make([]uint64, len(clients))
	for i, pl := range placements {
		i := i
		cli := clients[i]
		pl.Machine.Spawn("load", func(p *rfp.Proc) {
			req := make([]byte, 8)
			out := make([]byte, 4096)
			for k := uint64(i); ; k += 7 {
				binary.LittleEndian.PutUint64(req, k)
				start := p.Now()
				n, err := cli.Call(p, req, out)
				if err != nil {
					fmt.Println("call failed:", err)
					return
				}
				if sampler != nil {
					sampler.Observe(n, int64(p.Now().Sub(start)))
				}
				ops[i]++
			}
		})
	}
	env.Run(rfp.Time(500 * rfp.Microsecond))
	var before uint64
	for _, o := range ops {
		before += o
	}
	start := env.Now()
	window := rfp.Duration(rfp.Millisecond)
	env.Run(start.Add(window))
	var after uint64
	for _, o := range ops {
		after += o
	}
	return float64(after-before) / window.Seconds() / 1e6
}

func main() {
	// Step 1: hardware calibration.
	prof := rfp.ConnectX3()
	cal := rfp.Calibrate(prof, 6)
	fmt.Printf("hardware bounds: R in [1,%d], F in [%d,%d]\n", cal.N, cal.L, cal.H)

	// Step 2: pre-run with defaults, sampling result sizes.
	sampler := rfp.NewSampler(4096)
	base := drive(rfp.DefaultParams(), sampler)
	fmt.Printf("pre-run with defaults (F=%d): %.2f MOPS, %d samples collected\n",
		rfp.DefaultParams().F, base, len(sampler.Sizes))

	// Step 3: enumerate (R, F) over the bounded grid.
	r, f := rfp.Select(prof, 6, sampler.Sizes, sampler.ProcTimes)
	fmt.Printf("selected parameters: R=%d F=%d\n", r, f)

	// Step 4: re-run with the selected parameters.
	tuned := rfp.DefaultParams()
	tuned.R, tuned.F = r, f
	after := drive(tuned, nil)
	fmt.Printf("tuned run: %.2f MOPS (%.0f%% vs default)\n", after, 100*after/base)

	// For contrast: a deliberately oversized fetch wastes bandwidth on
	// every small response.
	waste := rfp.DefaultParams()
	waste.F = 4096
	bad := drive(waste, nil)
	fmt.Printf("mis-set F=4096: %.2f MOPS (%.0f%% vs tuned)\n", bad, 100*bad/after)
}
