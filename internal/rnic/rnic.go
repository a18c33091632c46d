// Package rnic simulates an RDMA-capable network interface card (RNIC) with
// verbs-like semantics: registered memory regions, reliable-connection queue
// pairs, one-sided RDMA Read/Write and two-sided Send/Recv.
//
// Data movement is real — RDMA operations copy bytes between registered
// regions, so higher layers exercise genuine wire formats, status bits and
// checksums — while time is virtual, driven by the sim kernel and the hw
// cost profile. The model captures the two phenomena the RFP paper builds
// on:
//
//   - In-bound vs. out-bound asymmetry: issuing a one-sided operation
//     occupies the initiator's out-bound engine (~474 ns/op), while serving
//     one occupies the responder's in-bound engine (~89 ns/op). The
//     responder's CPU is never involved.
//   - Bandwidth convergence: payload serialization occupies per-NIC TX/RX
//     pipes, so for payloads beyond ~2 KB both directions bottleneck on the
//     link and the asymmetry disappears.
//
// Two-sided Send/Recv deliberately costs the same on both sides (no
// asymmetry), matching the paper's observation in Sec. 2.2.
package rnic

import (
	"errors"
	"fmt"

	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/trace"
)

// Errors returned by data-path operations.
var (
	ErrBounds     = errors.New("rnic: access outside registered region")
	ErrBadKey     = errors.New("rnic: remote key mismatch")
	ErrDeregister = errors.New("rnic: memory region deregistered")
)

// Stats counts operations and bytes through a NIC. In-bound counts cover
// one-sided operations served by this NIC's hardware; out-bound counts cover
// one-sided operations issued by it. Sends/Recvs are two-sided messages.
type Stats struct {
	OutOps   uint64
	InOps    uint64
	OutBytes uint64
	InBytes  uint64
	Sends    uint64
	Recvs    uint64
}

// NIC is one simulated RDMA NIC attached to a machine.
type NIC struct {
	env   *sim.Env
	prof  hw.Profile
	name  string
	shard *sim.Shard // scheduler lane this NIC's hardware is homed to

	outEngine *sim.Resource // initiator-side processing engine
	inEngine  *sim.Resource // responder-side processing engine
	tx        *sim.Resource // transmit serialization pipe
	rx        *sim.Resource // receive serialization pipe

	issuers   int     // threads registered as issuing on this NIC
	cpuFactor float64 // CPU time dilation for post/poll (oversubscription)
	tracer    *trace.Ring

	nextRKey uint32

	injector FaultInjector // optional fault-injection seam (faults.go)
	down     bool          // machine crashed: refuse to serve or issue
	mrs      []*MR         // every registration, for crash invalidation

	// Resource-footprint accounting (control plane, no virtual time).
	regMRs int // live registrations
	qps    int // QP endpoints created on this NIC

	// Endpoint-lease demux (endpoint.go): the tags of every live lease whose
	// completions this NIC reaps, and the completions whose tag named no live
	// lease on the endpoint that completed them — dropped, never delivered.
	tags      tagTable
	Misrouted uint64

	// Stats accumulates since construction; callers snapshot it around
	// measurement windows.
	Stats Stats
}

// New creates a NIC in env with the given profile, homed to the default
// scheduler lane. In sharded environments the fabric layer calls SetShard
// right after construction, before any QPs or CQs exist.
func New(env *sim.Env, name string, prof hw.Profile) *NIC {
	return &NIC{
		env:       env,
		prof:      prof,
		name:      name,
		shard:     env.DefaultShard(),
		outEngine: sim.NewResource(env, 1),
		inEngine:  sim.NewResource(env, 1),
		tx:        sim.NewResource(env, 1),
		rx:        sim.NewResource(env, 1),
		cpuFactor: 1,
		nextRKey:  0x1000,
	}
}

// SetShard homes the NIC's hardware model (engines, pipes, and every queue
// created afterwards) to a scheduler lane. Must be called before the NIC
// serves any traffic; fabric.NewMachine does it during machine setup.
func (n *NIC) SetShard(sh *sim.Shard) {
	n.shard = sh
	n.outEngine.SetShard(sh)
	n.inEngine.SetShard(sh)
	n.tx.SetShard(sh)
	n.rx.SetShard(sh)
}

// Name returns the NIC's name.
func (n *NIC) Name() string { return n.name }

// RegisterIssuer records one more thread that issues operations through this
// NIC; the count feeds the QP/driver contention model (paper Fig. 4).
func (n *NIC) RegisterIssuer() { n.issuers++ }

// Issuers returns the number of registered issuing threads.
func (n *NIC) Issuers() int { return n.issuers }

// SetTracer attaches an event recorder to this NIC's data path (nil
// detaches). Tracing costs host time only; virtual timings are unaffected.
func (n *NIC) SetTracer(r *trace.Ring) { n.tracer = r }

// SetCPUFactor sets the CPU time dilation applied to post/poll overheads,
// normally threads/cores when a machine is oversubscribed.
func (n *NIC) SetCPUFactor(f float64) {
	if f < 1 {
		f = 1
	}
	n.cpuFactor = f
}

func (n *NIC) cpu(ns int64) sim.Duration {
	return sim.Duration(float64(ns) * n.cpuFactor)
}

// jitter draws the per-post timing noise (see hw.Profile.PostJitterNs).
func (n *NIC) jitter(p *sim.Proc) sim.Duration {
	if n.prof.PostJitterNs <= 0 {
		return 0
	}
	return sim.Duration(p.Rand().Int63n(n.prof.PostJitterNs))
}

// MR is a memory region registered with a NIC. The backing buffer is real:
// RDMA operations against the region move actual bytes, and local code on
// the owning machine may read and write Buf directly (that is the whole
// point of RDMA-exposed memory).
type MR struct {
	nic   *NIC
	Buf   []byte
	rkey  uint32
	valid bool
}

// PageSize is the registration (pinning) granularity: every region occupies
// whole pages of NIC-translatable memory, so RegisteredBytes rounds each MR
// up to it.
const PageSize = 4096

// pageRound rounds a region size up to whole pages.
func pageRound(size int) int64 {
	return int64((size + PageSize - 1) / PageSize * PageSize)
}

// RegisterMemory allocates and registers a region of the given size.
func (n *NIC) RegisterMemory(size int) *MR {
	if size <= 0 {
		panic(fmt.Sprintf("rnic: invalid region size %d", size))
	}
	n.nextRKey++
	mr := &MR{nic: n, Buf: make([]byte, size), rkey: n.nextRKey, valid: true}
	n.mrs = append(n.mrs, mr)
	n.regMRs++
	return mr
}

// RegisteredMRs returns the number of live registrations.
func (n *NIC) RegisteredMRs() int { return n.regMRs }

// QPs returns the number of QP endpoints created on this NIC.
func (n *NIC) QPs() int { return n.qps }

// Deregister invalidates the region; subsequent remote access fails.
func (mr *MR) Deregister() {
	if !mr.valid {
		return
	}
	mr.valid = false
	mr.nic.regMRs--
}

// Handle returns the remote-access handle (address + rkey in real verbs)
// that the owner passes to peers out of band during connection setup.
func (mr *MR) Handle() RemoteMR { return RemoteMR{mr: mr, rkey: mr.rkey} }

// RemoteMR is a peer's capability to access a memory region with one-sided
// operations. A handle may cover the whole region (MR.Handle) or a window of
// it (Window): offsets in one-sided operations are window-relative, and
// access outside the window fails bounds checking — which is what lets a
// slab registrar hand many clients capabilities into one shared MR without
// any client being able to reach a neighbour's carve.
type RemoteMR struct {
	mr   *MR
	rkey uint32
	base int // window start within the region
	span int // window length; 0 means the whole region
}

// Window returns a sub-handle covering length bytes starting at off within
// this handle. Windowing composes (a window of a window re-bases again) and
// never widens access: the requested range must fit the current handle.
func (r RemoteMR) Window(off, length int) RemoteMR {
	if off < 0 || length <= 0 || off+length > r.Size() {
		panic(fmt.Sprintf("rnic: window [%d,%d) outside handle of %d bytes", off, off+length, r.Size()))
	}
	return RemoteMR{mr: r.mr, rkey: r.rkey, base: r.base + off, span: length}
}

// Valid reports whether the handle refers to a live registration.
func (r RemoteMR) Valid() bool { return r.mr != nil && r.mr.valid }

// Size returns the handle's accessible size: the window length, or the whole
// region for an unwindowed handle.
func (r RemoteMR) Size() int {
	if r.mr == nil {
		return 0
	}
	if r.span > 0 {
		return r.span
	}
	return len(r.mr.Buf)
}

// NIC returns the NIC owning the referenced region.
func (r RemoteMR) NIC() *NIC {
	if r.mr == nil {
		return nil
	}
	return r.mr.nic
}

func (r RemoteMR) check(off, length int) error {
	if r.mr == nil || !r.mr.valid {
		return ErrDeregister
	}
	if r.rkey != r.mr.rkey {
		return ErrBadKey
	}
	if off < 0 || length < 0 || off+length > r.Size() {
		return ErrBounds
	}
	return nil
}

// buf returns the window's backing bytes for the data-path copy, already
// validated by check.
func (r RemoteMR) buf(off, length int) []byte {
	return r.mr.Buf[r.base+off : r.base+off+length]
}
