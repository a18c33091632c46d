// Package memckv models RDMA-Memcached (the OSU server-reply Memcached
// port the paper compares against, run in memory mode). Its defining
// characteristics, per the paper's Sec. 4.4:
//
//   - server-reply transport: the server pushes results to clients with
//     out-bound RDMA after processing;
//   - server threads share the key-value structures and "coordinate with
//     other threads for sharing data structures (e.g., LRU lists)", so a
//     global lock serializes part of every request and the system is
//     CPU-bound rather than NIC-bound;
//   - PUTs hold the shared lock much longer than GETs (item allocation,
//     slab bookkeeping, LRU list surgery), which is why its throughput
//     collapses under write-intensive workloads (Fig. 16);
//   - skewed workloads make popular items CPU-cache-resident, cutting
//     per-request cost ("RDMA-Memcached benefits from serving the popular
//     keys as this makes use of cache locality", Fig. 19).
//
// The data structures are real (a shared bucket store and an LLC-modeling
// key cache); the constants charge the simulated CPU the costs measured for
// the real system.
package memckv

import (
	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

// Config parameterizes the RDMA-Memcached model.
type Config struct {
	Threads  int
	Buckets  int // shared store size
	MaxValue int
	// Params configures the clients' connections, which always run in
	// server-reply mode (Params.ServerReply); zero means the paper's
	// defaults.
	Params core.Params
	Pool   core.PoolConfig
}

// The calibrated cost model: ~0.2 MOPS single-threaded, ~1.3 MOPS at 16
// threads read-intensive (lock-bound), ~0.4 MOPS write-intensive,
// out-bound-bound (~2.1 MOPS) under skew.
const (
	// Get/Put CPU (ns) runs outside the lock; lockGet/lockPut is the
	// serialized critical-section length. hotFactor scales both for keys
	// found in the shared key cache (LLC model) of keyCacheSize entries.
	cpuGetNs, cpuPutNs   int64 = 4300, 4800
	lockGetNs, lockPutNs int64 = 770, 2300
	hotFactor                  = 0.35
	keyCacheSize               = 4096

	// sharedEndpoints bounds how many NIC issuer slots the server threads
	// occupy: RDMA-Memcached multiplexes its connections over a shared
	// endpoint pool, so 16 worker threads do not contend on 16 QPs.
	sharedEndpoints = 6
)

// DefaultConfig returns the paper's 16-thread server.
func DefaultConfig() Config {
	return Config{Threads: 16, Buckets: 1 << 17, MaxValue: 8192}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Threads <= 0 {
		c.Threads = d.Threads
	}
	if c.Buckets <= 0 {
		c.Buckets = d.Buckets
	}
	if c.MaxValue <= 0 {
		c.MaxValue = d.MaxValue
	}
	if c.Params == (core.Params{}) {
		c.Params = core.DefaultParams()
	}
	c.Params = c.Params.ServerReply()
	return c
}

// Server is an RDMA-Memcached-like server.
type Server struct {
	cfg     Config
	machine *fabric.Machine
	rfp     *core.Server
	store   *kv.BucketStore // shared across all threads
	cache   *kv.KeyCache    // models the socket's last-level cache
	lock    *sim.Resource   // global LRU/hash lock
}

// NewServer creates the server on machine m.
func NewServer(m *fabric.Machine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		machine: m,
		rfp: core.NewServer(m, core.ServerConfig{
			MaxRequest:  1 + workload.KeySize + cfg.MaxValue,
			MaxResponse: 1 + cfg.MaxValue,
			Pool:        cfg.Pool,
		}),
		store: kv.NewBucketStore(cfg.Buckets),
		cache: kv.NewKeyCache(keyCacheSize),
		// Homed to m's lane: server procs hold this lock, and a wake
		// from a foreign lane deadlocks the sharded kernel.
		lock: sim.NewResourceOn(m.Shard(), 1),
	}
	// Threads count against cores, but only sharedEndpoints issuer slots
	// are occupied on the NIC.
	m.AddThreads(cfg.Threads)
	for i := 0; i < sharedEndpoints && i < cfg.Threads; i++ {
		m.NIC().RegisterIssuer()
	}
	return s
}

// Preload inserts all keys directly (no simulated time).
func (s *Server) Preload(keys []uint64, valueSize int) {
	kbuf := make([]byte, workload.KeySize)
	val := make([]byte, valueSize)
	for _, k := range keys {
		key := workload.EncodeKey(kbuf, k)
		workload.FillValue(val, k, 0)
		s.store.Put(key, val)
	}
}

// NewClient connects one client thread. Connections are spread round-robin
// across server threads (no key partitioning — the structures are shared).
func (s *Server) NewClient(cm *fabric.Machine) *Client {
	cli, _ := s.rfp.Accept(cm, s.cfg.Params)
	return &Client{conn: cli, kv: kv.NewStub(s.cfg.MaxValue)}
}

// Start spawns the server threads. All clients must be connected first.
func (s *Server) Start() {
	s.rfp.Start(s.cfg.Threads, func(int) core.Handler { return s.handler() })
}

// handler serves one thread.
func (s *Server) handler() core.Handler {
	prof := s.machine.Profile()
	return func(p *sim.Proc, conn *core.Conn, req, resp []byte) int {
		r, err := kv.DecodeRequest(req)
		if err != nil {
			return kv.EncodeResponse(resp, kv.StatusError, nil)
		}
		// The key cache models the socket's shared last-level cache: hot
		// items cost a fraction of the cold-path CPU and lock time.
		hot := s.cache.Touch(r.Key)
		factor := 1.0
		if hot {
			factor = hotFactor
		}
		cpu, lockHold := cpuGetNs, lockGetNs
		if r.Op == kv.OpPut {
			cpu, lockHold = cpuPutNs, lockPutNs
		}
		// Item parsing, slab lookup, hashing — parallel across threads.
		s.machine.ComputeNs(p, int64(float64(cpu)*factor))
		// Critical section: hash chain + LRU list updates under the global
		// lock, where the store is actually touched.
		s.lock.Acquire(p)
		var status byte
		var val []byte
		switch r.Op {
		case kv.OpGet:
			v, ok := s.store.Get(r.Key)
			if ok {
				status, val = kv.StatusOK, v
			} else {
				status = kv.StatusNotFound
			}
		case kv.OpPut:
			s.store.Put(r.Key, r.Value)
			status = kv.StatusOK
		default:
			status = kv.StatusError
		}
		s.machine.ComputeNs(p, int64(float64(lockHold)*factor))
		s.lock.Release()
		s.machine.ComputeNs(p, prof.CopyNs(len(val)))
		return kv.EncodeResponse(resp, status, val)
	}
}

// Client is one client thread's handle.
type Client struct {
	conn *core.Client
	kv   kv.Stub
}

// Get fetches key's value into out.
func (c *Client) Get(p *sim.Proc, key uint64, out []byte) (int, bool, error) {
	return c.kv.Get(p, c.conn, key, out)
}

// Put stores value under key.
func (c *Client) Put(p *sim.Proc, key uint64, value []byte) error {
	return c.kv.Put(p, c.conn, key, value)
}

// Stats returns the transport-level statistics.
func (c *Client) Stats() core.ClientStats { return c.conn.Stats }

// SetRecorder attaches rec to the client's connection (both endpoints).
// Nil detaches.
func (c *Client) SetRecorder(rec *telemetry.Recorder) { c.conn.SetRecorder(rec) }
