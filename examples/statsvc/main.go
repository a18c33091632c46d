// statsvc: a legacy statistics RPC service ported to RFP.
//
// The paper argues that server-bypass designs cannot be reused across
// applications — "a data structure designed for serving GET/PUT operations
// on a key-value store cannot be used for other kinds of applications, such
// as those with simple statistic operations". This example is exactly such
// an application: clients stream samples to per-metric aggregators and
// occasionally query running statistics (count/sum/min/max). Porting it to
// RFP required nothing beyond using the RFP call in the client stub — the
// server keeps its completely ordinary aggregation structures.
//
// Run with: go run ./examples/statsvc
package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"rfp"
)

// Protocol:
//
//	record: [1][2B metric][8B value]        -> [1]
//	query:  [2][2B metric]                  -> [count][sum][min][max] (4x8B)
const (
	opRecord byte = 1
	opQuery  byte = 2
)

type aggregate struct {
	count    uint64
	sum      float64
	min, max float64
}

type statServer struct {
	metrics []aggregate
}

func (s *statServer) handle(p *rfp.Proc, conn *rfp.Conn, req, resp []byte) int {
	if len(req) < 3 {
		return 0
	}
	m := int(binary.LittleEndian.Uint16(req[1:3]))
	if m >= len(s.metrics) {
		return 0
	}
	agg := &s.metrics[m]
	switch req[0] {
	case opRecord:
		v := math.Float64frombits(binary.LittleEndian.Uint64(req[3:11]))
		if agg.count == 0 || v < agg.min {
			agg.min = v
		}
		if agg.count == 0 || v > agg.max {
			agg.max = v
		}
		agg.count++
		agg.sum += v
		resp[0] = 1
		return 1
	case opQuery:
		binary.LittleEndian.PutUint64(resp[0:8], agg.count)
		binary.LittleEndian.PutUint64(resp[8:16], math.Float64bits(agg.sum))
		binary.LittleEndian.PutUint64(resp[16:24], math.Float64bits(agg.min))
		binary.LittleEndian.PutUint64(resp[24:32], math.Float64bits(agg.max))
		return 32
	}
	return 0
}

func main() {
	env := rfp.NewEnv(3)
	defer env.Close()

	const metrics = 64
	cluster := rfp.NewCluster(env, rfp.ConnectX3(), 3)
	server := rfp.NewServer(cluster.Server, rfp.ServerConfig{MaxRequest: 64, MaxResponse: 64})
	server.AddThreads(1)
	svc := &statServer{metrics: make([]aggregate, metrics)}

	clients := make([]*rfp.Client, len(cluster.Clients))
	for i, m := range cluster.Clients {
		clients[i], _ = server.Accept(m, rfp.DefaultParams())
	}
	server.Start(1, func(int) rfp.Handler { return svc.handle })

	// Each client machine records samples for its metrics, then queries.
	for i, m := range cluster.Clients {
		i := i
		cli := clients[i]
		m.Spawn("reporter", func(p *rfp.Proc) {
			req := make([]byte, 11)
			out := make([]byte, 64)
			for k := 0; k < 500; k++ {
				metric := uint16((i*19 + k) % metrics)
				value := float64(i+1) * float64(k%97)
				req[0] = opRecord
				binary.LittleEndian.PutUint16(req[1:3], metric)
				binary.LittleEndian.PutUint64(req[3:11], math.Float64bits(value))
				if _, err := cli.Call(p, req, out); err != nil {
					fmt.Println("record failed:", err)
					return
				}
			}
			// Query a few metrics back.
			for _, metric := range []uint16{0, 1, uint16(i)} {
				req[0] = opQuery
				binary.LittleEndian.PutUint16(req[1:3], metric)
				n, err := cli.Call(p, req[:3], out)
				if err != nil || n != 32 {
					fmt.Println("query failed:", err)
					return
				}
				count := binary.LittleEndian.Uint64(out[0:8])
				sum := math.Float64frombits(binary.LittleEndian.Uint64(out[8:16]))
				fmt.Printf("client %d: metric %2d -> count=%4d sum=%10.1f min=%6.1f max=%6.1f\n",
					i, metric, count, sum,
					math.Float64frombits(binary.LittleEndian.Uint64(out[16:24])),
					math.Float64frombits(binary.LittleEndian.Uint64(out[24:32])))
			}
		})
	}

	env.Run(rfp.Time(20 * rfp.Millisecond))

	var total uint64
	for _, agg := range svc.metrics {
		total += agg.count
	}
	fmt.Printf("\nserver aggregated %d samples across %d metrics over RFP\n", total, metrics)
}
