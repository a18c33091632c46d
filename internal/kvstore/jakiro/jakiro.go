// Package jakiro implements Jakiro, the paper's RFP-based in-memory
// key-value store (Sec. 4.1): GET/PUT RPC interfaces over RFP, an in-memory
// structure of 8-slot buckets with strict per-bucket LRU eviction,
// partitioned EREW across server threads (each thread only ever touches its
// own partition, so no locks exist on the data path).
//
// The ServerReply baseline of the evaluation is this same store with
// Params.ForceReply set — "ServerReply ... is extended from Jakiro and
// differs in that the server thread directly sends the result back through
// RDMA Write".
package jakiro

import (
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

// Config parameterizes a Jakiro deployment.
type Config struct {
	// Threads is the number of server threads == EREW partitions.
	Threads int
	// BucketsPerPartition sizes each partition (capacity = buckets * 8).
	BucketsPerPartition int
	// MaxValue caps value sizes (and sizes the RFP response buffers).
	MaxValue int
	// Params are the RFP connection parameters for new clients.
	Params core.Params
	// ExtraProcNs adds synthetic CPU work to every request — the "request
	// process time" knob of Fig. 14/15.
	ExtraProcNs int64
	// SpikeProb is the probability of one of the rare "unexpectedly long"
	// process times of Sec. 3.2, drawn uniformly from [spikeLoNs,
	// spikeHiNs] (default 0.04%; a slow request also delays queued
	// neighbours on its thread, so the observed multi-retry rate lands near
	// the paper's ~0.1-0.2%). Set it negative to disable.
	SpikeProb float64

	// Pool opts the store's RFP server into multiplexed endpoints and
	// shared-slab registration (core.PoolConfig; DESIGN.md §13). The zero
	// value keeps the paper's per-client QPs and regions.
	Pool core.PoolConfig
}

// The bounds of a process-time spike (Config.SpikeProb): 5-15 us.
const (
	spikeLoNs = 5_000
	spikeHiNs = 15_000
)

// DefaultConfig returns the evaluation's standard server: 6 threads, room
// for ~1M pairs, 8 KB max values, paper parameters (R=5, F=256).
func DefaultConfig() Config {
	return Config{
		Threads:             6,
		BucketsPerPartition: 32768,
		MaxValue:            8192,
		Params:              core.DefaultParams(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Threads <= 0 {
		c.Threads = d.Threads
	}
	if c.BucketsPerPartition <= 0 {
		c.BucketsPerPartition = d.BucketsPerPartition
	}
	if c.MaxValue <= 0 {
		c.MaxValue = d.MaxValue
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.0004
	}
	if c.SpikeProb < 0 {
		c.SpikeProb = 0
	}
	return c
}

// Server is a Jakiro server instance.
type Server struct {
	cfg     Config
	machine *fabric.Machine
	rfp     *core.Server
	parts   []*kv.BucketStore
}

// NewServer creates a Jakiro server on machine m.
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
	}
	for i := 0; i < cfg.Threads; i++ {
		s.parts = append(s.parts, kv.NewBucketStore(cfg.BucketsPerPartition))
	}
	s.rfp.AddThreads(cfg.Threads)
	return s
}

// SetExtraProcNs changes Config.ExtraProcNs at runtime; requests charged
// after the call pay the new value.
func (s *Server) SetExtraProcNs(ns int64) { s.cfg.ExtraProcNs = ns }

// Machine returns the hosting machine.
func (s *Server) Machine() *fabric.Machine { return s.machine }

// Partition returns partition i's store (for tests and preloading).
func (s *Server) Partition(i int) *kv.BucketStore { return s.parts[i] }

// Preload inserts all keys directly (no simulated time), with values
// derived from workload.FillValue at version 0.
func (s *Server) Preload(keys []uint64, valueSize int) {
	kbuf := make([]byte, workload.KeySize)
	val := make([]byte, valueSize)
	for _, k := range keys {
		key := workload.EncodeKey(kbuf, k)
		workload.FillValue(val, k, 0)
		s.parts[kv.PartitionFor(key, s.cfg.Threads)].Put(key, val)
	}
}

// NewClient connects a client thread on machine cm: one RFP connection per
// server thread, accepted in partition order, so connection t lands on
// server thread t (core.Server.Start) and requests can be routed to the
// partition that owns each key (EREW never forwards between threads).
func (s *Server) NewClient(cm *fabric.Machine) *Client {
	c := &Client{kv: kv.NewStub(s.cfg.MaxValue)}
	for t := 0; t < s.cfg.Threads; t++ {
		cli, _ := s.rfp.Accept(cm, s.cfg.Params)
		c.conns = append(c.conns, cli)
	}
	return c
}

// Start spawns the server threads, thread t serving partition t. All
// clients must be connected first.
func (s *Server) Start() {
	s.rfp.Start(s.cfg.Threads, func(t int) core.Handler { return s.handler(s.parts[t]) })
}

// handler processes GET/PUT against one partition, charging a CPU cost
// model: fixed dispatch overhead, per-byte copy cost, the optional
// synthetic extra processing, and the rare heavy-tail spike.
func (s *Server) handler(part *kv.BucketStore) core.Handler {
	prof := s.machine.Profile()
	return func(p *sim.Proc, conn *core.Conn, req, resp []byte) int {
		s.charge(p)
		r, err := kv.DecodeRequest(req)
		if err != nil {
			return kv.EncodeResponse(resp, kv.StatusError, nil)
		}
		switch r.Op {
		case kv.OpGet:
			v, ok := part.Get(r.Key)
			if !ok {
				return kv.EncodeResponse(resp, kv.StatusNotFound, nil)
			}
			s.machine.ComputeNs(p, prof.CopyNs(len(v)))
			return kv.EncodeResponse(resp, kv.StatusOK, v)
		case kv.OpPut:
			part.Put(r.Key, r.Value)
			s.machine.ComputeNs(p, prof.CopyNs(len(r.Value)))
			return kv.EncodeResponse(resp, kv.StatusOK, nil)
		default:
			return kv.EncodeResponse(resp, kv.StatusError, nil)
		}
	}
}

// charge applies the per-request CPU model shared by both ops.
func (s *Server) charge(p *sim.Proc) {
	ns := int64(150) + s.cfg.ExtraProcNs // dispatch, hash, slot scan
	if s.cfg.SpikeProb > 0 && p.Rand().Float64() < s.cfg.SpikeProb {
		ns += spikeLoNs + p.Rand().Int63n(spikeHiNs-spikeLoNs+1)
	}
	s.machine.ComputeNs(p, ns)
}

// Client is one client thread's handle to a Jakiro server.
type Client struct {
	conns []*core.Client // one per server thread
	kv    kv.Stub
}

// JoinGroup adds every per-partition connection to a fan-out group
// (core.Group), so one thread's Poll drives all of them — including the
// connections of other Jakiro clients sharing the group, which is how the
// sharded layer (internal/shard) keeps several servers' rings full at once.
// Must be called before any traffic on the connections.
func (c *Client) JoinGroup(g *core.Group) error {
	for _, cc := range c.conns {
		if err := g.Add(cc); err != nil {
			return err
		}
	}
	return nil
}

// partFor routes a key to the partition that owns it.
func (c *Client) partFor(key uint64) int {
	var kb [workload.KeySize]byte
	return kv.PartitionFor(workload.EncodeKey(kb[:], key), len(c.conns))
}

// Get fetches key's value into out, reporting whether it was found. The
// returned count is the value length.
func (c *Client) Get(p *sim.Proc, key uint64, out []byte) (int, bool, error) {
	return c.kv.Get(p, c.conns[c.partFor(key)], key, out)
}

// Put stores value under key.
func (c *Client) Put(p *sim.Proc, key uint64, value []byte) error {
	return c.kv.Put(p, c.conns[c.partFor(key)], key, value)
}

// Do executes a generated workload operation (value bytes derived from the
// key for verifiability) and reports whether it succeeded.
func (c *Client) Do(p *sim.Proc, op workload.Op, scratch []byte) (bool, error) {
	return kv.Do(c, p, op, scratch)
}

// PendingOp tracks one posted single-key operation (PostOp/PollOp), the
// building block the sharded pipelined client keeps many of in flight.
type PendingOp struct {
	part int
	h    core.Handle
}

// PostOp stages one GET or PUT on the owning partition's ring without
// waiting (ReadModifyWrite is inherently sequential — use Do). The value
// bytes of a PUT are derived from the key, as in Do; a value over MaxValue
// fails as in Put, before anything is staged. A full ring surfaces as
// core.ErrRingFull: poll an earlier operation and retry.
func (c *Client) PostOp(p *sim.Proc, op workload.Op) (PendingOp, error) {
	if op.Kind == workload.ReadModifyWrite {
		return PendingOp{}, fmt.Errorf("jakiro: PostOp cannot pipeline %v", op.Kind)
	}
	req, err := c.kv.EncodeOp(op)
	if err != nil {
		return PendingOp{}, err
	}
	part := c.partFor(op.Key)
	h, err := c.conns[part].Post(p, req)
	if err != nil {
		return PendingOp{}, err
	}
	return PendingOp{part: part, h: h}, nil
}

// PollOp blocks until the posted operation completes, reporting whether it
// found/stored its key (Do's convention). GET values are copied into
// scratch.
func (c *Client) PollOp(p *sim.Proc, pd PendingOp, scratch []byte) (bool, error) {
	return c.kv.Poll(p, c.conns[pd.part], pd.h, scratch)
}

// Stats aggregates the RFP client statistics over all per-thread
// connections.
func (c *Client) Stats() core.ClientStats {
	var agg core.ClientStats
	for _, conn := range c.conns {
		agg.Add(conn.Stats)
	}
	return agg
}

// Conns exposes the underlying RFP clients (for parameter retuning).
func (c *Client) Conns() []*core.Client { return c.conns }

// SetRecorder attaches one telemetry recorder to every per-thread
// connection (both endpoints), so per-call telemetry aggregates across the
// client's whole partition fan-out. Nil detaches.
func (c *Client) SetRecorder(rec *telemetry.Recorder) {
	for _, conn := range c.conns {
		conn.SetRecorder(rec)
	}
}
