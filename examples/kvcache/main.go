// kvcache: a Memcached-style in-memory cache ported to RFP.
//
// This is the workload the paper's introduction motivates: a key-value
// cache in front of slower storage, where the RPC layer is the bottleneck.
// The service below is written exactly like a classic socket-based RPC
// cache — opcode dispatch, a hash map with LRU-ish eviction per server
// thread — and swaps the transport for RFP, demonstrating the "moderate
// porting cost" claim: no data-structure redesign, just client_send/
// client_recv instead of send/recv.
//
// The demo drives the paper's topology (7 client machines, 35 threads,
// 95% GET, 16 B keys / 32 B values) and prints throughput plus transport
// counters.
//
// Run with: go run ./examples/kvcache
package main

import (
	"encoding/binary"
	"fmt"

	"rfp"
)

// Protocol: [op][8B key][payload]. Opcodes:
const (
	opGet byte = 1
	opPut byte = 2
)

// cache is one server thread's private shard (exclusive-read-exclusive-
// write: no locks anywhere on the data path).
type cache struct {
	data map[uint64][]byte
	cap  int
}

func (c *cache) handle(p *rfp.Proc, conn *rfp.Conn, req, resp []byte) int {
	if len(req) < 9 {
		return 0
	}
	key := binary.LittleEndian.Uint64(req[1:9])
	switch req[0] {
	case opGet:
		v, ok := c.data[key]
		if !ok {
			resp[0] = 0
			return 1
		}
		resp[0] = 1
		return 1 + copy(resp[1:], v)
	case opPut:
		if len(c.data) >= c.cap {
			for k := range c.data { // crude random eviction
				delete(c.data, k)
				break
			}
		}
		c.data[key] = append([]byte(nil), req[9:]...)
		resp[0] = 1
		return 1
	}
	return 0
}

func main() {
	env := rfp.NewEnv(7)
	defer env.Close()

	const (
		serverThreads = 6
		clientThreads = 35
		keySpace      = 50_000
		valueSize     = 32
	)

	cluster := rfp.NewCluster(env, rfp.ConnectX3(), 7)
	server := rfp.NewServer(cluster.Server, rfp.ServerConfig{MaxRequest: 256, MaxResponse: 256})
	server.AddThreads(serverThreads)

	// Shard by key across server threads; preload every key.
	shards := make([]*cache, serverThreads)
	for i := range shards {
		shards[i] = &cache{data: make(map[uint64][]byte), cap: 2 * keySpace}
	}
	val := make([]byte, valueSize)
	for k := uint64(0); k < keySpace; k++ {
		shards[int(k)%serverThreads].data[k] = append([]byte(nil), val...)
	}

	// Connect clients: one connection per (client thread, server thread),
	// accepted in shard order so connection s lands on server thread s.
	type clientSet struct {
		perShard []*rfp.Client
	}
	placements := cluster.ClientThreads(clientThreads)
	clients := make([]clientSet, len(placements))
	for i, pl := range placements {
		cs := clientSet{perShard: make([]*rfp.Client, serverThreads)}
		for s := 0; s < serverThreads; s++ {
			cs.perShard[s], _ = server.Accept(pl.Machine, rfp.DefaultParams())
		}
		clients[i] = cs
	}
	server.Start(serverThreads, func(s int) rfp.Handler { return shards[s].handle })

	// Drive a 95% GET workload.
	ops := make([]uint64, len(placements))
	hits := make([]uint64, len(placements))
	for i, pl := range placements {
		i := i
		cs := clients[i]
		seed := uint64(i)*2654435761 + 12345
		pl.Machine.Spawn("load", func(p *rfp.Proc) {
			req := make([]byte, 9+valueSize)
			out := make([]byte, 256)
			rng := seed
			for {
				rng = rng*6364136223846793005 + 1442695040888963407
				key := (rng >> 20) % keySpace
				isGet := (rng>>8)%100 < 95
				binary.LittleEndian.PutUint64(req[1:9], key)
				cli := cs.perShard[int(key)%serverThreads]
				var n int
				var err error
				if isGet {
					req[0] = opGet
					n, err = cli.Call(p, req[:9], out)
				} else {
					req[0] = opPut
					n, err = cli.Call(p, req, out)
				}
				if err != nil {
					fmt.Println("call failed:", err)
					return
				}
				if n > 0 && out[0] == 1 {
					hits[i]++
				}
				ops[i]++
			}
		})
	}

	// Warm up, then measure one millisecond of virtual time.
	env.Run(rfp.Time(500 * rfp.Microsecond))
	var before uint64
	for _, o := range ops {
		before += o
	}
	start := env.Now()
	window := rfp.Duration(rfp.Millisecond)
	env.Run(start.Add(window))
	var after, hit uint64
	for i := range ops {
		after += ops[i]
		hit += hits[i]
	}

	mops := float64(after-before) / window.Seconds() / 1e6
	fmt.Printf("cache throughput : %.2f MOPS (35 client threads, 95%% GET)\n", mops)
	fmt.Printf("requests served  : %d (hit ratio %.1f%%)\n", after, 100*float64(hit)/float64(after))
	var fetches, calls uint64
	for _, cs := range clients {
		for _, c := range cs.perShard {
			calls += c.Stats.Calls
			fetches += c.Stats.FetchReads
		}
	}
	fmt.Printf("remote fetches   : %.3f per call — the inline size field makes one read enough\n",
		float64(fetches)/float64(calls))
}
