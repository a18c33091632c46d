// Package paradigm provides the synthetic server-bypass client used to
// measure bypass access amplification (Fig. 6) — the server-bypass row of
// the design space the paper lays out in Table 1.
package paradigm

import (
	"errors"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
	"rfp/internal/sim"
)

// ErrBadOps reports an invalid per-request operation count.
var ErrBadOps = errors.New("paradigm: ops per request must be >= 1")

// BypassClient models a server-bypass application client whose logical
// requests each require k dependent one-sided RDMA reads (metadata probes,
// data fetches, conflict-resolution retries). The per-request work is what
// varies across applications; the NIC-level cost per read does not — which
// is exactly why measured server-bypass throughput is the in-bound IOPS
// ceiling divided by k (Fig. 6).
type BypassClient struct {
	qp     *rnic.QP
	remote rnic.RemoteMR
	buf    []byte
	stride int

	// Requests counts completed logical requests; Reads counts RDMA reads.
	Requests uint64
	Reads    uint64
}

// NewBypassClient connects a bypass client on machine cm against the
// server-resident region. readSize is the per-read payload (32 B in the
// paper's microbenchmark).
func NewBypassClient(cm *fabric.Machine, region rnic.RemoteMR, readSize int) *BypassClient {
	qp, _ := rnic.Connect(cm.NIC(), region.NIC())
	return &BypassClient{
		qp:     qp,
		remote: region,
		buf:    make([]byte, readSize),
		stride: readSize,
	}
}

// Request performs one logical request of k dependent reads. Reads walk
// disjoint offsets, mimicking probe-then-fetch chains where each read's
// target depends on the previous result.
func (b *BypassClient) Request(p *sim.Proc, k int) error {
	if k < 1 {
		return ErrBadOps
	}
	max := b.remote.Size() - len(b.buf)
	off := int(b.Requests) * b.stride % (max + 1)
	for i := 0; i < k; i++ {
		if err := b.qp.Read(p, b.remote, off, b.buf); err != nil {
			return err
		}
		b.Reads++
		// Dependent chain: the next offset derives from fetched bytes.
		off = (off + int(b.buf[0]) + b.stride) % (max + 1)
	}
	b.Requests++
	return nil
}
