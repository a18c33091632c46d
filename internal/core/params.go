package core

// Params are the user-set knobs of RFP (paper Sec. 3.2). R and F are the
// two parameters the paper's selection procedure optimizes; the rest encode
// secondary policy the paper describes in its Discussion.
type Params struct {
	// R is the failed-fetch retry threshold: once a call has issued more
	// than R unsuccessful remote fetches, the call counts as an overrun and
	// the hybrid mechanism may fall back to server-reply.
	R int

	// F is the default fetch size in bytes, covering the 8-byte response
	// header plus payload. A response whose total size exceeds F costs one
	// extra RDMA Read for the remainder.
	F int

	// ReplyPollNs is the local-memory poll interval while waiting in
	// server-reply mode. Sparse polling is what lets client CPU utilization
	// drop in reply mode (paper Fig. 15).
	ReplyPollNs int64

	// DisableSwitch pins the connection to repeated remote fetching
	// regardless of overruns ("Jakiro w/o Switch" in Fig. 14).
	DisableSwitch bool

	// ForceReply pins the connection to server-reply mode, yielding the
	// ServerReply baseline from the paper's evaluation.
	ForceReply bool

	// NoInline disables the inline size mechanism: each successful fetch
	// first reads only the 8-byte header and then issues a second read for
	// the payload. This is the strawman Sec. 3.2 rejects ("using an RDMA
	// operation to get the size separately requires at least two remote
	// fetches for each RPC call") — kept for the ablation benchmark.
	NoInline bool

	// Depth is the connection's request-ring depth: how many independent
	// request/response slots the registered region holds, and hence how
	// many calls the client may keep in flight with Post/Poll. Depth 1
	// (the default) is the paper's one-slot connection; deeper rings are
	// the pipelining extension the paper sets aside as orthogonal
	// (Sec. 2.2/5). Clamped to [1, MaxDepth].
	Depth int

	// DeadlineNs enables the recovery path (extension, DESIGN.md §10): a
	// call that has not produced a response after this much virtual time —
	// across fetch retries, transport errors, backoff and reconnects —
	// fails terminally with ErrDeadline. Zero (the default) disables
	// recovery entirely: transport errors surface immediately and the
	// connection behaves exactly like the paper's lossless-fabric model.
	DeadlineNs int64

	// BackoffNs is the base of the exponential backoff slept after a
	// transport error before the operation is retried, capped at 32x the
	// base. Only meaningful with DeadlineNs > 0; defaults to 2000 ns then.
	BackoffNs int64

	// DemoteAfter demotes the connection permanently to server-reply mode
	// after this many consecutive calls needed fault recovery — the
	// fetch path is persistently failing, so stop probing it. Zero (the
	// default) never demotes. Demotion suppresses switch-back and is
	// surfaced through the tuner (Tuner.Demotions).
	DemoteAfter int

	// MaxDepth is the ring's slot capacity: the largest depth SetDepth may
	// set at runtime. Region registration is a control-path operation
	// whose buffer locations are exchanged exactly once (paper Sec. 3.1),
	// so Accept sizes the registered region and the client's slot arrays
	// for MaxDepth slots up front, and a depth change allocates nothing. Zero
	// means "same as Depth": fixed-depth connections pay no extra memory,
	// and depth-1 defaults keep the seed's single-slot layout byte for
	// byte. Clamped to [Depth, the MaxDepth constant].
	MaxDepth int
}

// MaxDepth bounds the request-ring depth; beyond the initiator engine's
// pipeline depth extra slots only add memory.
const MaxDepth = 64

// DefaultParams returns the paper's configuration for the ConnectX-3
// cluster: R = 5, F = 256.
func DefaultParams() Params {
	return Params{R: 5, F: 256, ReplyPollNs: 1000}
}

// ServerReply returns p pinned to server-reply mode, polling local memory
// every 300 ns: the ServerReply baseline's transport, and the channel
// RDMA-Memcached and Pilaf's PUTs ride.
func (p Params) ServerReply() Params {
	p.ForceReply = true
	p.ReplyPollNs = 300
	return p
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.R <= 0 {
		p.R = d.R
	}
	if p.F <= 0 {
		p.F = d.F
	}
	if p.ReplyPollNs <= 0 {
		p.ReplyPollNs = d.ReplyPollNs
	}
	if p.DeadlineNs > 0 && p.BackoffNs <= 0 {
		p.BackoffNs = 2000
	}
	if p.Depth <= 0 {
		p.Depth = 1
	}
	if p.Depth > MaxDepth {
		p.Depth = MaxDepth
	}
	if p.MaxDepth < p.Depth {
		p.MaxDepth = p.Depth
	}
	if p.MaxDepth > MaxDepth {
		p.MaxDepth = MaxDepth
	}
	return p
}

// PoolConfig chooses the geometry of a server's connection resources
// (DESIGN.md §13). Every connection is an endpoint lease plus two slab
// leases; the two fields say, independently, how many leases share one QP
// pair and one registration. The zero value is the paper's handshake: one QP
// pair and one exact-size MR per client.
type PoolConfig struct {
	// QPs is the number of shared QP pairs per (server, client-machine)
	// pair that leases multiplex over by WR-ID tag. Zero gives each lease
	// its own QP pair, retired with the lease.
	QPs int

	// SlabBytes is the size of each shared registration slab that per-client
	// ring regions (and reply landings) are carved from. Zero registers one
	// exact-size MR per lease.
	SlabBytes int
}

// ServerConfig sizes the per-connection buffers.
type ServerConfig struct {
	MaxRequest  int // largest request payload in bytes
	MaxResponse int // largest response payload in bytes

	// Pool sets how many connections share a QP pair and a registration;
	// the zero value is one of each per connection (the paper's handshake).
	Pool PoolConfig
}

// DefaultServerConfig allows 1 KB requests and 16 KB responses, enough for
// the paper's workloads (16 B keys, values up to 8 KB).
func DefaultServerConfig() ServerConfig {
	return ServerConfig{MaxRequest: 1024, MaxResponse: 16384}
}

func (c ServerConfig) withDefaults() ServerConfig {
	d := DefaultServerConfig()
	if c.MaxRequest <= 0 {
		c.MaxRequest = d.MaxRequest
	}
	if c.MaxResponse <= 0 {
		c.MaxResponse = d.MaxResponse
	}
	return c
}
