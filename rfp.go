// Package rfp is the public API of this repository: a Go implementation of
// the Remote Fetching Paradigm (RFP) from "RFP: When RPC is Faster than
// Server-Bypass with RDMA" (Su et al., EuroSys 2017), together with the
// simulated RDMA substrate it runs on.
//
// RFP is an RDMA RPC paradigm built on two hardware observations:
//
//  1. In-bound vs. out-bound asymmetry — an RNIC serves one-sided
//     operations (~11.26 MOPS on ConnectX-3) about 5x faster than it can
//     issue them (~2.11 MOPS), because the responder side is handled purely
//     in NIC hardware.
//  2. Bypass access amplification — server-bypass designs need several
//     dependent RDMA operations per logical request, so their measured
//     throughput falls far below the one-operation ideal.
//
// RFP therefore keeps the server on the request path (ordinary RPC
// semantics, no bespoke data structures) but lets clients fetch results out
// of server memory with RDMA Reads, so the server's NIC only ever serves
// cheap in-bound operations. A hybrid mechanism falls back to classic
// server-reply when the server is too loaded for fetching to pay, governed
// by two tunables: the retry threshold R and the fetch size F, both
// selected by the bounded enumeration of the paper's Sec. 3.2.
//
// # Quick start
//
//	env := rfp.NewEnv(1)
//	defer env.Close()
//	cluster := rfp.NewCluster(env, rfp.ConnectX3(), 1)
//	server := rfp.NewServer(cluster.Server, rfp.ServerConfig{})
//	server.AddThreads(1)
//	client, conn := server.Accept(cluster.Clients[0], rfp.DefaultParams())
//	cluster.Server.Spawn("srv", func(p *rfp.Proc) {
//		rfp.Serve(p, []*rfp.Conn{conn}, func(p *rfp.Proc, c *rfp.Conn, req, resp []byte) int {
//			return copy(resp, req) // echo
//		})
//	})
//	cluster.Clients[0].Spawn("cli", func(p *rfp.Proc) {
//		out := make([]byte, 64)
//		n, err := client.Call(p, []byte("ping"), out)
//		_ = n
//		_ = err
//	})
//	env.RunAll()
//
// Because real RDMA hardware is not assumed, the cluster is a deterministic
// discrete-event simulation: data movement is real byte copies between
// registered regions; time is virtual and calibrated against the paper's
// ConnectX-3 measurements. See DESIGN.md for the model and EXPERIMENTS.md
// for paper-vs-measured numbers.
package rfp

import (
	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/rnic"
	"rfp/internal/rpc"
	"rfp/internal/sim"
	"rfp/internal/trace"
)

// Simulation kernel types.
type (
	// Env is a deterministic discrete-event simulation environment.
	Env = sim.Env
	// Proc is a simulated thread of execution.
	Proc = sim.Proc
	// Time is a virtual-time instant in nanoseconds.
	Time = sim.Time
	// Duration is a span of virtual time in nanoseconds.
	Duration = sim.Duration
)

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Cluster substrate types.
type (
	// Machine is one simulated host (CPU complex + RNIC).
	Machine = fabric.Machine
	// Cluster is the paper's topology: a server plus client machines.
	Cluster = fabric.Cluster
	// Placement locates a logical client thread on a machine.
	Placement = fabric.Placement
	// Profile is a hardware cost profile (NIC rates, latencies, cores).
	Profile = hw.Profile
)

// RFP types.
type (
	// Server is an RFP server endpoint.
	Server = core.Server
	// Conn is the server side of one RFP connection.
	Conn = core.Conn
	// Client is the client side of one RFP connection.
	Client = core.Client
	// Handler processes one request in a Serve loop.
	Handler = core.Handler
	// Params are RFP's tunables (R, F, hybrid policy).
	Params = core.Params
	// ServerConfig sizes per-connection buffers.
	ServerConfig = core.ServerConfig
	// ClientStats reports the hybrid mechanism's behaviour.
	ClientStats = core.ClientStats
	// Mode is a call's delivery mode (fetch or reply).
	Mode = core.Mode
	// Calibration holds hardware-derived parameter-selection bounds.
	Calibration = core.Calibration
	// Sampler collects pre-run samples for parameter selection.
	Sampler = core.Sampler
	// BufAllocator implements malloc_buf/free_buf over a registered region.
	BufAllocator = core.BufAllocator
	// Handle identifies an in-flight request posted with Client.Post on a
	// connection whose Params.Depth allows pipelining; redeem it with
	// Client.Poll.
	Handle = core.Handle
)

// Pipelining errors (Client.Post/Poll on a multi-slot connection).
var (
	// ErrRingFull reports a Post with every ring slot already in flight.
	ErrRingFull = core.ErrRingFull
	// ErrClosed reports use of a closed connection; in-flight posts resolve
	// to it on Poll.
	ErrClosed = core.ErrClosed
)

// Delivery modes.
const (
	ModeFetch = core.ModeFetch
	ModeReply = core.ModeReply
)

// NewEnv creates a simulation environment seeded for reproducibility.
func NewEnv(seed int64) *Env { return sim.NewEnv(seed) }

// NewCluster builds one server machine plus nClients client machines.
func NewCluster(env *Env, prof Profile, nClients int) *Cluster {
	return fabric.NewCluster(env, prof, nClients)
}

// NewMachine creates a standalone machine.
func NewMachine(env *Env, name string, prof Profile) *Machine {
	return fabric.NewMachine(env, name, prof)
}

// ConnectX3 returns the default calibrated 40 Gbps hardware profile.
func ConnectX3() Profile { return hw.ConnectX3() }

// ConnectX2 returns the 20 Gbps profile used for the Pilaf comparison.
func ConnectX2() Profile { return hw.ConnectX2() }

// NewServer creates an RFP server on a machine.
func NewServer(m *Machine, cfg ServerConfig) *Server { return core.NewServer(m, cfg) }

// DefaultParams returns the paper's parameters for the default hardware
// (R = 5, F = 256, switch after 2 consecutive overruns).
func DefaultParams() Params { return core.DefaultParams() }

// Serve runs a server-thread loop over a set of connections.
func Serve(p *Proc, conns []*Conn, h Handler) { core.Serve(p, conns, h) }

// Calibrate derives the parameter-selection bounds ([1,N] for R, [L,H] for
// F) from a hardware profile — the paper's one-off micro-benchmark step.
func Calibrate(prof Profile, serverThreads int) Calibration {
	return core.Calibrate(prof, serverThreads)
}

// Select runs the full Sec. 3.2 parameter-selection procedure over sampled
// result sizes and process times.
func Select(prof Profile, serverThreads int, resultSizes []int, procTimesNs []int64) (r, f int) {
	return core.Select(prof, serverThreads, resultSizes, procTimesNs)
}

// SelectF picks the fetch size for sampled result sizes within [L, H].
func SelectF(cal Calibration, sizes []int) int { return core.SelectF(cal, sizes) }

// SelectR picks the retry threshold from sampled process times within
// [1, N].
func SelectR(cal Calibration, procTimesNs []int64) int { return core.SelectR(cal, procTimesNs) }

// NewSampler creates a bounded pre-run/on-line sample collector.
func NewSampler(n int) *Sampler { return core.NewSampler(n) }

// NewBufAllocator registers size bytes on m's NIC and returns the paper's
// malloc_buf/free_buf allocator over them (Table 2): message buffers staged
// in RDMA-registered memory without per-call registration.
func NewBufAllocator(m *Machine, size int) *BufAllocator {
	return core.NewBufAllocator(m.NIC(), size)
}

// net/rpc-style framework over RFP (see internal/rpc): register ordinary
// Go methods, call them by name with gob-encoded arguments — the "legacy
// RPC interfaces" the paper promises to support.
type (
	// RPCServer dispatches named methods over RFP connections.
	RPCServer = rpc.Server
	// RPCClient is a client-side method-call stub.
	RPCClient = rpc.Client
	// ServerError is an error string returned by a remote method.
	ServerError = rpc.ServerError
)

// RPC errors.
var (
	ErrNoSuchMethod = rpc.ErrNoSuchMethod
)

// NewRPCServer wraps an RFP server with method dispatch.
func NewRPCServer(s *Server) *RPCServer { return rpc.NewServer(s) }

// DialRPC connects a client machine to an RPC server and returns a stub
// plus the server-side connection (to hand to a Serve loop).
func DialRPC(s *RPCServer, clientMachine *Machine, params Params, maxMessage int) (*RPCClient, *Conn) {
	return rpc.Dial(s, clientMachine, params, maxMessage)
}

// Advanced surface: the simulated verbs layer and observability hooks, for
// users building their own paradigms on the substrate.
type (
	// NIC is a simulated RDMA NIC.
	NIC = rnic.NIC
	// MR is an RNIC-registered memory region.
	MR = rnic.MR
	// RemoteMR is a peer's one-sided access capability to a region.
	RemoteMR = rnic.RemoteMR
	// QP is a reliable-connection queue pair endpoint.
	QP = rnic.QP
	// Tuner adapts R and F on line from sampled calls.
	Tuner = core.Tuner
	// TraceRing records data-path events on a NIC.
	TraceRing = trace.Ring
	// TraceEvent is one recorded data-path operation.
	TraceEvent = trace.Event
)

// Connect establishes a reliable connection between two machines' NICs and
// returns the two endpoints (first machine's first).
func Connect(a, b *Machine) (*QP, *QP) { return rnic.Connect(a.NIC(), b.NIC()) }

// NewTuner creates an on-line parameter tuner with the given sample-window
// capacity and re-selection period; attach it with Client.AttachTuner.
func NewTuner(cal Calibration, window, period int) *Tuner {
	return core.NewTuner(cal, window, period)
}

// NewTraceRing creates a data-path event recorder holding the last
// capacity events; attach it with NIC.SetTracer.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }
