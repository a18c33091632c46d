// Quickstart: a minimal RFP RPC service.
//
// One server machine exports an "echo" RPC; one client calls it in a loop.
// The demo prints per-call latency and the connection's transport counters,
// showing the RFP fast path at work: every call is one in-bound RDMA Write
// (the request) plus one in-bound RDMA Read (the client fetching the result
// out of server memory) — the server NIC never issues an operation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"rfp"
)

func main() {
	env := rfp.NewEnv(42)
	defer env.Close()

	cluster := rfp.NewCluster(env, rfp.ConnectX3(), 1)
	server := rfp.NewServer(cluster.Server, rfp.ServerConfig{MaxRequest: 256, MaxResponse: 256})
	server.AddThreads(1)

	client, conn := server.Accept(cluster.Clients[0], rfp.DefaultParams())

	// The server side is ordinary RPC: poll for requests, compute, publish
	// the response. No application-specific data structures, no redesign —
	// RFP's whole point.
	cluster.Server.Spawn("echo-server", func(p *rfp.Proc) {
		rfp.Serve(p, []*rfp.Conn{conn}, func(p *rfp.Proc, c *rfp.Conn, req, resp []byte) int {
			n := copy(resp, req)
			copy(resp[:n], reverse(req))
			return n
		})
	})

	// The paper's malloc_buf/free_buf (Table 2): message buffers live in
	// memory registered with the client NIC once, up front.
	bufs := rfp.NewBufAllocator(cluster.Clients[0], 4096)
	req, _ := bufs.MallocBuf(256)
	out, _ := bufs.MallocBuf(256)

	const calls = 10
	cluster.Clients[0].Spawn("client", func(p *rfp.Proc) {
		defer bufs.FreeBuf(req)
		defer bufs.FreeBuf(out)
		for i := 0; i < calls; i++ {
			msg := fmt.Sprintf("hello rfp %d", i)
			start := p.Now()
			n, err := client.Call(p, req[:copy(req, msg)], out)
			if err != nil {
				fmt.Println("call failed:", err)
				return
			}
			fmt.Printf("call %2d: %q -> %q  (%.2f us)\n",
				i, msg, out[:n], float64(p.Now().Sub(start))/1e3)
		}
	})

	env.Run(rfp.Time(rfp.Millisecond))

	st := client.Stats
	fmt.Printf("\ntransport: %d calls, %d remote fetches (%.2f per call), mode %v\n",
		st.Calls, st.FetchReads, float64(st.FetchReads)/float64(st.Calls), client.Mode())
	fmt.Printf("server NIC: issued 0 out-bound ops for %d responses — all fetched by the client\n", st.Calls)
}

func reverse(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[len(b)-1-i] = c
	}
	return out
}
