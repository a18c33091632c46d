package rnic

// Endpoint leases: the one connection shape. The QP half of RFP's scaling
// wall is a reliable connection per client — per-client QP state in the NIC,
// and past a few thousand QPs the cache that holds that state thrashes (the
// RDMAvisor / Swift observation in PAPERS.md). An EndpointPool hands every
// logical client an EndpointLease — a 16-bit WR-ID tag plus the right to post
// on an endpoint's QP pair — in one of two geometries: perPeer > 0 keeps a
// small fixed set of QP pairs per machine pair and multiplexes many leases
// over them; perPeer == 0 gives each lease its own endpoint and retires it
// with the lease (the paper's one-QP-per-client handshake, and the endpoint
// mirror of SlabRegistrar's "slab size 0 = one MR per lease").
//
// Demultiplexing happens on the CQ path: every endpoint owns one hardware
// CQ, and its route hook (async.go) looks the completed WR's tag up at
// delivery time and forwards the CQE to the lease's deliver queue. Tags are
// allocated by the NIC that reaps — the client machine's — so one table per
// NIC names every live lease of that machine, whichever server it leads to.
// A completion whose tag names no live lease of the completing endpoint is
// dropped and counted (NIC.Misrouted) — never delivered to the wrong logical
// client. Routing at delivery (not at poll) keeps blocking semantics: a
// client in Wait on its own queue is woken directly, with no one pumping the
// shared CQ.

import (
	"errors"

	"rfp/internal/sim"
)

// Tag-field geometry: WR-ID bits [TagShift, TagShift+TagBits) carry the
// lease tag.
const (
	TagShift = 48
	TagBits  = 16
	// MaxTags bounds concurrent leases per reaping NIC; tag images must fit
	// the WR-ID field, so exhaustion is a typed error, never silent aliasing.
	MaxTags = 1 << TagBits
)

// ErrTagSpace reports a lease request that would overflow the WR-ID tag
// field: every tag of the reaping NIC is in use by a live lease.
var ErrTagSpace = errors.New("rnic: endpoint tag space exhausted")

// tagTable is one NIC's lease-tag allocator and demux table (index = tag).
type tagTable struct {
	limit  int // test hook; 0 means MaxTags
	leases []*EndpointLease
	free   sim.Ring[uint16] // released tags, oldest first
}

// SetTagLimit lowers the NIC's tag space (tests exercise exhaustion without
// 64k leases). Only meaningful before the first lease.
func (n *NIC) SetTagLimit(limit int) { n.tags.limit = limit }

// take allocates a tag for l. Fresh tags are handed out first and released
// ones recycled only once the fresh space is exhausted, so a straggler
// completion for a just-released tag meets an empty demux slot (dropped),
// not a fast re-claimer.
func (t *tagTable) take(l *EndpointLease) bool {
	limit := t.limit
	if limit < 1 || limit > MaxTags {
		limit = MaxTags
	}
	switch {
	case len(t.leases) < limit:
		l.tag = uint16(len(t.leases))
		t.leases = append(t.leases, l)
	case t.free.Len() > 0:
		l.tag = t.free.Pop()
		t.leases[l.tag] = l
	default:
		return false
	}
	return true
}

// EndpointPool leases endpoints between its owner's NIC and peer NICs.
type EndpointPool struct {
	home    *NIC // the pool owner's NIC (the server side, for RFP)
	perPeer int  // shared QP pairs per (home, peer) machine pair; 0 = one per lease
	sites   map[*NIC]*peerSite
}

// peerSite is the pool's state for one remote NIC. After setup it is touched
// only from that NIC's lane (Release), so peers on different lanes share
// nothing.
type peerSite struct {
	shared    []*Endpoint // perPeer > 0: the set leases round-robin over
	next      int
	endpoints int // live (unretired) endpoints
	leases    int
}

// NewEndpointPool creates a pool on the owner's NIC with perPeer shared QP
// pairs per remote machine; zero gives every lease a private endpoint.
func NewEndpointPool(home *NIC, perPeer int) *EndpointPool {
	return &EndpointPool{home: home, perPeer: perPeer, sites: make(map[*NIC]*peerSite)}
}

// Endpoints returns the number of live endpoints (QP pairs).
func (p *EndpointPool) Endpoints() int {
	total := 0
	for _, s := range p.sites {
		total += s.endpoints
	}
	return total
}

// Leases returns the number of live leases across the pool.
func (p *EndpointPool) Leases() int {
	total := 0
	for _, s := range p.sites {
		total += s.leases
	}
	return total
}

// Occupancy returns the heaviest endpoint's live-lease count — the
// multiplexing factor telemetry reports (1 for private endpoints).
func (p *EndpointPool) Occupancy() int {
	occ := 0
	for _, s := range p.sites {
		if p.perPeer <= 0 && s.leases > 0 {
			occ = 1
		}
		for _, ep := range s.shared {
			if ep.leases > occ {
				occ = ep.leases
			}
		}
	}
	return occ
}

// Endpoint is one QP pair between the pool's NIC and a peer, plus the
// hardware CQ its completions demux from.
type Endpoint struct {
	site   *peerSite
	peer   *NIC
	qpPeer *QP // peer-machine side: the logical clients' initiator endpoint
	qpHome *QP // pool-owner side (reply-mode pushes, for RFP)
	cq     *CQ // hardware CQ on the peer NIC, demuxed by tag; created on first PostCQ
	leases int
}

// newEndpoint connects one QP pair for the site.
func (p *EndpointPool) newEndpoint(s *peerSite, peer *NIC) *Endpoint {
	qpPeer, qpHome := Connect(peer, p.home)
	s.endpoints++
	return &Endpoint{site: s, peer: peer, qpPeer: qpPeer, qpHome: qpHome}
}

// routeCQE demultiplexes one completion by its WR-ID tag. Only a tag naming
// a live lease of this very endpoint is delivered; anything else — a stale
// tag, a foreign endpoint's tag, a forged image — is dropped and counted.
//
//rfp:hotpath
func (ep *Endpoint) routeCQE(e CQE) *CQ {
	if tag := int(e.ID >> TagShift); tag < len(ep.peer.tags.leases) {
		if l := ep.peer.tags.leases[tag]; l != nil && l.ep == ep {
			return l.deliver
		}
	}
	ep.peer.Misrouted++
	return nil
}

// EndpointLease is one logical client's claim on an endpoint: a tag and the
// queue its completions are delivered to.
type EndpointLease struct {
	ep       *Endpoint
	tag      uint16
	deliver  *CQ
	released bool
}

// Lease allocates a tag on the peer NIC and places the logical client onto
// an endpoint: its own with private endpoints, else round-robin over the
// shared set (created lazily up to perPeer). Completions for WRs carrying
// the tag land in deliver, which may be nil until the holder Redirects — a
// connection that never posts needs no queue at all.
func (p *EndpointPool) Lease(peer *NIC, deliver *CQ) (*EndpointLease, error) {
	l := &EndpointLease{deliver: deliver}
	if !peer.tags.take(l) {
		return nil, ErrTagSpace
	}
	s := p.sites[peer]
	if s == nil {
		s = &peerSite{}
		p.sites[peer] = s
	}
	switch {
	case p.perPeer <= 0:
		l.ep = p.newEndpoint(s, peer)
	case len(s.shared) < p.perPeer:
		l.ep = p.newEndpoint(s, peer)
		s.shared = append(s.shared, l.ep)
	default:
		l.ep = s.shared[s.next%len(s.shared)]
		s.next++
	}
	l.ep.leases++
	s.leases++
	return l, nil
}

// Tag returns the lease's tag image, already shifted into WR-ID position —
// OR it into every WR ID posted under this lease.
func (l *EndpointLease) Tag() uint64 { return uint64(l.tag) << TagShift }

// QP returns the initiator-side QP (on the peer machine).
func (l *EndpointLease) QP() *QP { return l.ep.qpPeer }

// HomeQP returns the pool-owner-side QP (reply-mode pushes).
func (l *EndpointLease) HomeQP() *QP { return l.ep.qpHome }

// PostCQ returns the endpoint's hardware CQ, created on first use: pass it
// to Post, and the demux delivers this lease's completions to its deliver
// queue.
//
//rfp:hotpath
func (l *EndpointLease) PostCQ() *CQ {
	if l.ep.cq == nil {
		l.ep.cq = NewCQ(l.ep.peer)
		l.ep.cq.route = l.ep.routeCQE
	}
	return l.ep.cq
}

// Redirect re-targets the lease's deliveries (a client's first Post points
// its lease at its queue; one joining a fan-out group, at the group's).
func (l *EndpointLease) Redirect(cq *CQ) { l.deliver = cq }

// Endpoint returns the endpoint this lease posts on.
func (l *EndpointLease) Endpoint() *Endpoint { return l.ep }

// Release frees the tag for reuse and retires a private endpoint (one not in
// its site's shared set) with its only lease. Completions still in flight
// under the tag are dropped by the demux from here on (counted as
// misrouted), which is exactly the "never deliver to the wrong client"
// contract: the table slot already points at nothing, and the tag is handed
// out again only after every fresh one.
func (l *EndpointLease) Release() {
	if l.released {
		return
	}
	l.released = true
	t := &l.ep.peer.tags
	t.leases[l.tag] = nil
	t.free.Push(l.tag)
	l.ep.leases--
	l.ep.site.leases--
	if l.ep.leases == 0 && len(l.ep.site.shared) == 0 {
		l.ep.site.endpoints--
	}
}
