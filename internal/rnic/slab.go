package rnic

// Shared slab registrar. The per-client handshake the paper assumes — one
// registered region per connection — is the memory half of RFP's scaling
// wall: an RNIC pins registrations page by page, so 10,000 clients with a
// few-hundred-byte ring each cost 10,000 MRs and tens of megabytes of pinned
// pages. The registrar instead registers a few large slabs and lazily carves
// per-client ring regions out of them: O(slab count) MRs, byte-packed, with
// each client holding only a windowed RemoteMR capability onto its carve.
//
// Dedicated mode (slab size zero) registers one exact-size MR per lease —
// the paper's one-MR-per-client handshake, call for call (EndpointPool's
// perPeer zero is the same geometry for QP pairs).

// slabAlign is the carve alignment inside a slab (cache-line sized, like the
// ring's own slot alignment).
const slabAlign = 64

// span is one free extent inside a slab.
type span struct{ off, size int }

// slab is one large registration plus its free list, kept sorted by offset
// and coalesced on release.
type slab struct {
	mr   *MR
	free []span
}

// SlabRegistrar carves lease-sized regions out of a small set of large MRs.
type SlabRegistrar struct {
	nic      *NIC
	slabSize int // 0: dedicated mode (one MR per lease)
	slabs    []*slab
	leases   int   // live leases, including dedicated/oversize ones
	bytes    int64 // page-rounded bytes pinned by this registrar's MRs
	mrs      int   // live MRs (slabs plus dedicated leases)
}

// NewSlabRegistrar creates a registrar on n. slabBytes is the size of each
// shared slab; zero selects dedicated mode.
func NewSlabRegistrar(n *NIC, slabBytes int) *SlabRegistrar {
	return &SlabRegistrar{nic: n, slabSize: slabBytes}
}

// Slabs returns the number of shared slabs registered so far.
func (r *SlabRegistrar) Slabs() int { return len(r.slabs) }

// Leases returns the number of live leases.
func (r *SlabRegistrar) Leases() int { return r.leases }

// RegisteredBytes returns the page-rounded bytes this registrar has pinned
// (a real RNIC pins whole pages, which is why thousands of small per-client
// regions cost far more than their byte count suggests).
func (r *SlabRegistrar) RegisteredBytes() int64 { return r.bytes }

// RegisteredMRs returns the registrar's live MR count (slabs plus dedicated
// leases).
func (r *SlabRegistrar) RegisteredMRs() int { return r.mrs }

// SlabLease is one carved region: a [off, off+size) window of a registered
// slab (or a whole dedicated MR). The holder owns the bytes until Release.
type SlabLease struct {
	reg       *SlabRegistrar
	mr        *MR
	off       int
	size      int
	dedicated bool // own MR: deregister on release
	released  bool
}

// Lease carves a region of the given size. In dedicated mode — and for any
// request larger than the slab size — the lease gets its own registration;
// otherwise it is cut first-fit from the existing slabs' free lists, with a
// fresh slab registered when every slab is full. The returned bytes are
// zeroed: a recycled carve must not leak a previous holder's status bits.
func (r *SlabRegistrar) Lease(size int) *SlabLease {
	if size <= 0 {
		panic("rnic: invalid lease size")
	}
	r.leases++
	if r.slabSize <= 0 || size > r.slabSize {
		r.bytes += pageRound(size)
		r.mrs++
		return &SlabLease{reg: r, mr: r.nic.RegisterMemory(size), off: 0, size: size, dedicated: true}
	}
	want := alignUp(size, slabAlign)
	for _, s := range r.slabs {
		if !s.mr.valid {
			continue // lost to a crash; skip, never reuse
		}
		if off, ok := s.take(want); ok {
			return r.carve(s, off, size)
		}
	}
	r.bytes += pageRound(r.slabSize)
	r.mrs++
	s := &slab{mr: r.nic.RegisterMemory(r.slabSize)}
	s.free = []span{{0, r.slabSize}}
	r.slabs = append(r.slabs, s)
	off, _ := s.take(want)
	return r.carve(s, off, size)
}

// carve builds the lease for a successful take, zeroing the recycled bytes.
func (r *SlabRegistrar) carve(s *slab, off, size int) *SlabLease {
	buf := s.mr.Buf[off : off+size]
	for i := range buf {
		buf[i] = 0
	}
	return &SlabLease{reg: r, mr: s.mr, off: off, size: size}
}

// Release returns the carve to its slab's free list (coalescing with
// neighbours) or deregisters a dedicated MR. Releasing twice is a no-op, and
// a slab invalidated by a crash is tolerated — there is nothing to return
// the bytes to.
func (l *SlabLease) Release() {
	if l.released {
		return
	}
	l.released = true
	l.reg.leases--
	if l.dedicated {
		l.reg.bytes -= pageRound(l.size)
		l.reg.mrs--
		l.mr.Deregister()
		return
	}
	if !l.mr.valid {
		return
	}
	for _, s := range l.reg.slabs {
		if s.mr == l.mr {
			s.give(span{l.off, alignUp(l.size, slabAlign)})
			return
		}
	}
}

// Buf returns the lease's backing bytes (the owner-side view; remote peers
// go through Handle).
func (l *SlabLease) Buf() []byte { return l.mr.Buf[l.off : l.off+l.size] }

// Size returns the leased length in bytes.
func (l *SlabLease) Size() int { return l.size }

// Handle returns the remote capability for exactly this carve: offsets are
// lease-relative and bounds-checked against the window, so the layout
// arithmetic of a leasing client is identical to one owning a whole MR.
func (l *SlabLease) Handle() RemoteMR { return l.mr.Handle().Window(l.off, l.size) }

// Valid reports whether the lease's backing registration is still live.
func (l *SlabLease) Valid() bool { return !l.released && l.mr.valid }

// take removes a span of the given size from the free list, first-fit.
func (s *slab) take(size int) (int, bool) {
	for i := range s.free {
		f := &s.free[i]
		if f.size < size {
			continue
		}
		off := f.off
		f.off += size
		f.size -= size
		if f.size == 0 {
			s.free = append(s.free[:i], s.free[i+1:]...)
		}
		return off, true
	}
	return 0, false
}

// give returns a span to the free list, keeping it sorted by offset and
// merging adjacent extents so churn cannot fragment the slab forever.
func (s *slab) give(v span) {
	i := 0
	for i < len(s.free) && s.free[i].off < v.off {
		i++
	}
	s.free = append(s.free, span{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = v
	// Coalesce with the successor, then the predecessor.
	if i+1 < len(s.free) && s.free[i].off+s.free[i].size == s.free[i+1].off {
		s.free[i].size += s.free[i+1].size
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	if i > 0 && s.free[i-1].off+s.free[i-1].size == s.free[i].off {
		s.free[i-1].size += s.free[i].size
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
}

// alignUp rounds v up to a multiple of a.
func alignUp(v, a int) int { return (v + a - 1) / a * a }
