package core

// Server side of RFP. The server's role is deliberately conventional — it
// processes every request on its CPU, exactly like a classic RPC server —
// which is what lets RFP support legacy RPC interfaces without
// application-specific data structures. The only departure from
// server-reply is in Conn.Send: results are written into local response
// buffers for clients to fetch, instead of being pushed with out-bound
// RDMA, unless the request's mode byte says the client has fallen back to
// server-reply.

import (
	"errors"
	"fmt"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/trace"
)

// Server is an RFP server endpoint on one machine. It accepts connections,
// then Start serves accepted connection i on thread i mod threads; Jakiro
// gets its EREW partitions by accepting in partition order.
type Server struct {
	machine *fabric.Machine
	cfg     ServerConfig
	conns   []*Conn
	started bool

	// Connection resources (DESIGN.md §13). slabs carves server-side ring
	// regions; landing carves each client machine's reply landings; pool
	// leases QP pairs. cfg.Pool sets the geometry only: at its zero value
	// every lease gets its own MR and QP pair, so the handshake is
	// call-for-call the paper's.
	slabs   *rnic.SlabRegistrar
	landing map[*fabric.Machine]*rnic.SlabRegistrar
	pool    *rnic.EndpointPool
}

// NewServer creates an RFP server on machine m.
func NewServer(m *fabric.Machine, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		machine: m,
		cfg:     cfg,
		slabs:   rnic.NewSlabRegistrar(m.NIC(), cfg.Pool.SlabBytes),
		landing: make(map[*fabric.Machine]*rnic.SlabRegistrar),
		pool:    rnic.NewEndpointPool(m.NIC(), cfg.Pool.QPs),
	}
}

// Pool returns the server's endpoint pool.
func (s *Server) Pool() *rnic.EndpointPool { return s.pool }

// Resources gauges the transport footprint behind this server's
// connections: registered memory and MRs across the ring-region registrar
// and every client machine's landing registrar, QPs on the serving NIC, and
// the endpoint pool's multiplexing state. This is the registered-memory
// footprint the ext-crowd experiment compares pooled vs dedicated.
func (s *Server) Resources() telemetry.Resources {
	r := telemetry.Resources{
		RegisteredBytes:   s.slabs.RegisteredBytes(),
		RegisteredMRs:     s.slabs.RegisteredMRs(),
		QPs:               s.machine.NIC().QPs(),
		Endpoints:         s.pool.Endpoints(),
		EndpointLeases:    s.pool.Leases(),
		EndpointOccupancy: s.pool.Occupancy(),
	}
	for _, lr := range s.landing {
		r.RegisteredBytes += lr.RegisteredBytes()
		r.RegisteredMRs += lr.RegisteredMRs()
	}
	return r
}

// Slabs returns the server-side ring-region registrar.
func (s *Server) Slabs() *rnic.SlabRegistrar { return s.slabs }

// landingSlabs returns (creating on first use) the registrar carving reply
// landings on one client machine.
func (s *Server) landingSlabs(cm *fabric.Machine) *rnic.SlabRegistrar {
	r := s.landing[cm]
	if r == nil {
		r = rnic.NewSlabRegistrar(cm.NIC(), s.cfg.Pool.SlabBytes)
		s.landing[cm] = r
	}
	return r
}

// Machine returns the hosting machine.
func (s *Server) Machine() *fabric.Machine { return s.machine }

// ErrStarted reports a TryAccept after Server.Start.
var ErrStarted = errors.New("core: accept after Server.Start")

// Start spawns the serve loops: thread t serves, with handler(t), the
// accepted connections whose accept index is t mod threads. A thread with
// no connection spawns nothing. Accept every client first: TryAccept then
// fails with ErrStarted, and a second Start panics. Cores and NIC issuers
// are AddThreads' to declare.
func (s *Server) Start(threads int, handler func(thread int) Handler) {
	if s.started {
		panic("core: Server.Start called twice")
	}
	s.started = true
	for t := 0; t < threads; t++ {
		var own []*Conn
		for i := t; i < len(s.conns); i += threads {
			own = append(own, s.conns[i])
		}
		if len(own) == 0 {
			continue
		}
		h := handler(t)
		s.machine.Spawn(fmt.Sprintf("serve-%d", t), func(p *sim.Proc) { Serve(p, own, h) })
	}
}

// AddThreads declares n server threads: they count against the machine's
// cores and register as NIC issuers (server threads issue out-bound RDMA
// only in reply mode, but the QP/CQ contention they cause is what limits
// ServerReply scalability past ~6 threads, paper Fig. 12).
func (s *Server) AddThreads(n int) {
	s.machine.AddThreads(n)
	for i := 0; i < n; i++ {
		s.machine.NIC().RegisterIssuer()
	}
}

// Conn is the server-side endpoint of one RFP connection (one per client
// thread). Layout of the server-side region (paper Fig. 7, extended to a
// ring of Depth slots):
//
//	[closed flag][slot 0: request | response][slot 1: ...]
type Conn struct {
	srv *Server
	id  int

	lease  *rnic.SlabLease // server-side buffers (a slab carve, or a whole MR of its own)
	buf    []byte          // lease.Buf(), cached for the poll path
	qp     *rnic.QP        // server->client endpoint (reply-mode writes); the lease's home QP
	client rnic.RemoteMR
	depth  int

	lastSlot int // last slot a request was consumed from (scan fairness)
	curSlot  int // slot of the request last consumed by TryRecv
	curSeq   uint16
	recvAt   sim.Time

	// ran holds, per slot, ranSeq|seq of the request last executed there
	// (zero: none since the last bind), so a resent request is not run twice.
	ran []uint32

	rec *telemetry.Recorder // optional telemetry (set via Client.SetRecorder)

	// ServedFetch / ServedReply count responses by delivery mode.
	ServedFetch uint64
	ServedReply uint64

	// BadRequests counts consumed slots whose status bit was set but whose
	// size field was garbage (a torn or corrupt delivery); no response is
	// served for them — the client's resend path recovers the call.
	BadRequests uint64
}

// ID returns the connection's accept-order index.
func (c *Conn) ID() int { return c.id }

// Depth returns the connection's request-ring depth.
func (c *Conn) Depth() int { return c.depth }

// Closed reports whether the client has torn the connection down.
func (c *Conn) Closed() bool { return c.buf[0]&modeClosed != 0 }

// TryRecv scans the connection's request slots (server_recv in the paper's
// API), starting after the last slot served so a busy ring is drained
// fairly. If any slot holds a valid request it is consumed, and its payload
// is copied into buf (MaxRequest bytes) and returned as buf's prefix. The
// poll itself costs server CPU, charged by the caller's serve loop.
//
//rfp:hotpath
func (c *Conn) TryRecv(p *sim.Proc, buf []byte) ([]byte, bool) {
	for i := 1; i <= c.depth; i++ {
		s := (c.lastSlot + i) % c.depth
		off := reqOffAt(c.srv.cfg, s)
		slot := c.buf[off : off+HeaderSize+c.srv.cfg.MaxRequest]
		hdr, req, ok := parseSlot(slot, c.srv.cfg.MaxRequest)
		if !ok {
			if hdr.valid {
				// Status bit set but the size field is garbage (a torn or
				// corrupt delivery): consume the slot so it cannot wedge the
				// scan, and serve nothing — the client's resend recovers.
				consume(slot)
				c.BadRequests++
			}
			continue
		}
		// Consume: clear the status word so the slot is free for the
		// client's next request.
		consume(slot)
		if c.ran[s] == ranSeq|uint32(hdr.seq) {
			// At most once: a resent request already ran here. Its
			// response, once published, sits in the slot's response area,
			// where a fetch finds it; in reply mode it is pushed again. A
			// resend that overtakes the first run is dropped — that run
			// publishes.
			if rh := parseHeader(c.buf[respOffAt(c.srv.cfg, s):]); rh.valid && rh.seq == hdr.seq && c.replyMode(s) {
				//rfpvet:allow errdrop a failed re-push leaves the response fetchable, as Serve's failed push does, and the client resends again
				_ = c.push(p, s, rh.size)
			}
			continue
		}
		c.ran[s] = ranSeq | uint32(hdr.seq)
		// Unpack: copy the request out of the slot and charge the copy.
		// recvAt is per-request, so the process time the response reports
		// (which feeds the client's (R, F) tuner) is this slot's alone.
		c.lastSlot = s
		c.curSlot = s
		c.curSeq = hdr.seq
		c.recvAt = p.Now()
		req = buf[:copy(buf, req)]
		prof := c.srv.machine.Profile()
		c.srv.machine.ComputeNs(p, prof.LocalPollNs+prof.CopyNs(hdr.size))
		c.srvEvent(trace.SrvRecv, c.recvAt, p.Now(), s, hdr.seq, hdr.size)
		return req, true
	}
	return nil, false
}

// Send publishes the response for the request last consumed by TryRecv
// (server_send in the paper's API). In fetch mode it only writes the
// server-local response buffer — the client will fetch it remotely. If the
// request's mode byte, read now, asks for reply mode, the response is
// additionally pushed with an out-bound RDMA Write; writing the local
// buffer too keeps the fallback fetch path alive for a call whose switch
// to reply lands after the publish.
//
//rfp:hotpath
func (c *Conn) Send(p *sim.Proc, payload []byte) error {
	if len(payload) > c.srv.cfg.MaxResponse {
		//rfpvet:allow hotpathalloc oversized-response error path, never taken by well-formed handlers
		return fmt.Errorf("core: response of %d bytes exceeds limit %d", len(payload), c.srv.cfg.MaxResponse)
	}
	procNs := int64(p.Now().Sub(c.recvAt))
	hdr := header{valid: true, size: len(payload), timeUs: clampTimeUs(procNs), seq: c.curSeq}
	buf := c.buf[respOffAt(c.srv.cfg, c.curSlot):]
	// Payload and size first, status bit last: a fetch racing this publish
	// sees an invalid (or stale-seq) header, never a torn valid response.
	pubAt := p.Now()
	putResponse(buf, hdr, payload)
	c.srv.machine.ComputeNs(p, c.srv.machine.Profile().CopyNs(len(payload)+HeaderSize))
	c.srvEvent(trace.SrvPub, pubAt, p.Now(), c.curSlot, c.curSeq, len(payload))
	if c.replyMode(c.curSlot) {
		return c.push(p, c.curSlot, len(payload))
	}
	c.ServedFetch++
	return nil
}

// ranSeq marks a Conn.ran entry as holding a seq, so that a slot which has
// run nothing matches no request, seq 0 included.
const ranSeq = 1 << 16

// replyMode reports whether slot s's request asks for server-reply.
//
//rfp:hotpath
func (c *Conn) replyMode(s int) bool {
	return Mode(c.buf[reqOffAt(c.srv.cfg, s)+reqModeOff]) == ModeReply
}

// push writes slot s's published response of n payload bytes into the
// client's reply landing.
//
//rfp:hotpath
func (c *Conn) push(p *sim.Proc, s, n int) error {
	c.ServedReply++
	off := respOffAt(c.srv.cfg, s)
	return c.qp.Write(p, c.client, s*respArea(c.srv.cfg), c.buf[off:off+HeaderSize+n])
}

// retire releases a closed connection's server-side region back to its
// registrar. Idempotent (Release tolerates repeats); only called once the
// connection has left every Serve loop's polling set, so no slot scan can
// touch a recycled carve.
func (c *Conn) retire() { c.lease.Release() }

// Handler processes one request and writes the response into resp
// (MaxResponse bytes), returning the response length. A request runs at
// most once per connection binding: a resent request whose (slot, seq) ran
// already is not run again (Conn.TryRecv). A reconnect binds fresh
// regions and starts with an empty record, so a request whose response was
// lost with the old region may run again (DESIGN.md §10). req is the serve
// loop's copy of the request (Conn.TryRecv), the handler's until it returns.
type Handler func(p *sim.Proc, conn *Conn, req []byte, resp []byte) int

// crashedIdleNs is how often a Serve loop re-checks a crashed machine for
// restart (virtual time; the modeled process is simply gone meanwhile).
const crashedIdleNs = 10_000

// Serve runs a server-thread loop over one server's connections: poll each
// connection's request buffer, process requests with h, publish responses.
// Server.Start runs one per thread; a caller that serves only part of what
// it accepted runs its own. The loop runs until the simulation stops it.
// Both the server threads and the clients poll memory directly, as in
// Jakiro ("both the server and the client threads directly poll the memory
// buffers"); an empty sweep charges the sweep's CPU cost in one burst to
// keep the simulation efficient.
func Serve(p *sim.Proc, conns []*Conn, h Handler) {
	if len(conns) == 0 {
		panic("core: Serve with no connections")
	}
	m, cfg := conns[0].srv.machine, conns[0].srv.cfg
	reqBuf, resp := make([]byte, cfg.MaxRequest), make([]byte, cfg.MaxResponse)
	sweepNs := m.Profile().LocalPollNs * int64(len(conns))
	if sweepNs < 200 {
		sweepNs = 200
	}
	// Consecutive empty sweeps back off geometrically (capped) so an idle
	// server does not flood the event loop; the at-most ~2 us of extra
	// pickup latency only ever applies after the connection set has been
	// quiet for several sweeps, which never happens at the loads the
	// evaluation measures.
	backoff := int64(1)
	live := append([]*Conn(nil), conns...)
	for {
		if m.Down() {
			// The machine is crashed: the process makes no progress until
			// Restart. The loop itself idles (a sim artifact — the real
			// process would be gone and restarted by an operator).
			p.Sleep(sim.Duration(crashedIdleNs))
			backoff = 1
			continue
		}
		found := false
		kept := live[:0]
		for _, c := range live {
			if c.Closed() {
				// The client tore the connection down: stop polling it and
				// return its ring region to the registrar (a slab carve is
				// recycled for the next Accept; a dedicated MR deregisters).
				c.retire()
				continue
			}
			kept = append(kept, c)
			// Drain every ready slot (at most one ring's worth per sweep,
			// so a deep pipelining client cannot starve its neighbours).
			for served := 0; served < c.depth; served++ {
				req, ok := c.TryRecv(p, reqBuf)
				if !ok {
					break
				}
				found = true
				n := h(p, c, req, resp)
				if err := c.Send(p, resp[:n]); err != nil {
					// A reply-mode push can fail mid-recovery: the client's
					// landing region is being re-registered, or the client
					// machine itself is gone. The response stays in the
					// server-local buffer (fetchable after reconnect); the
					// connection is kept — the client swaps fresh buffers
					// into this same Conn when it re-establishes.
					continue
				}
			}
		}
		live = kept
		if len(live) == 0 {
			return // every connection closed; the thread retires
		}
		if found {
			backoff = 1
			continue
		}
		idle := sweepNs * backoff
		if idle > 2000 {
			idle = 2000
		} else if backoff < 8 {
			backoff *= 2
		}
		m.ComputeNs(p, idle)
	}
}

// leased bundles one connection's transport resources: the server-side ring
// region, the client-side reply landing, and the endpoint lease (tag + QP
// pair).
type leased struct {
	region  *rnic.SlabLease
	landing *rnic.SlabLease
	ep      *rnic.EndpointLease
}

// leaseResources acquires a connection's transport resources in the order of
// the paper's per-client handshake — server region, QP pair, client landing —
// which at PoolConfig's zero value is that handshake registration for
// registration. The endpoint lease fails with rnic.ErrTagSpace when the
// client NIC's WR-ID tag field is exhausted.
func (s *Server) leaseResources(cm *fabric.Machine, capacity int) (leased, error) {
	region := s.slabs.Lease(regionSize(s.cfg, capacity))
	ep, err := s.pool.Lease(cm.NIC(), nil)
	if err != nil {
		region.Release()
		return leased{}, err
	}
	return leased{region: region, ep: ep, landing: s.landingSlabs(cm).Lease(capacity * respArea(s.cfg))}, nil
}

// bind installs a connection's transport resources into both of its ends —
// the exchange of buffer locations (paper Sec. 3.1). TryAccept binds once;
// reconnect is the only re-binder.
//
//rfp:quiesced TryAccept binds a connection nothing has posted on yet; reconnect holds the quiesce rule
func (c *Client) bind(res leased) {
	conn := c.conn
	conn.lease, conn.buf = res.region, res.region.Buf()
	conn.qp, conn.client = res.ep.HomeQP(), res.landing.Handle()
	c.qp, c.server = res.ep.QP(), res.region.Handle()
	c.local, c.landing = res.landing, res.landing.Buf()
	if c.group != nil {
		c.group.retag(c, res.ep.Tag())
	}
	c.lease, c.tag = res.ep, res.ep.Tag()
	c.lease.Redirect(c.cq)
	// The old region took its responses with it: nothing has run here.
	clear(conn.ran)
}

// Accept establishes an RFP connection from a (thread on a) client machine
// and returns both endpoints. Buffer locations are exchanged at
// registration time, exactly once, so the data path never needs further
// coordination (paper Sec. 3.1). Accept panics when the client machine's
// lease-tag space is exhausted; servers expecting tens of thousands of
// connections should use TryAccept.
func (s *Server) Accept(clientMachine *fabric.Machine, params Params) (*Client, *Conn) {
	cli, conn, err := s.TryAccept(clientMachine, params)
	if err != nil {
		panic(fmt.Sprintf("core: Accept: %v", err))
	}
	return cli, conn
}

// TryAccept is Accept with the handshake failure surfaced: a client machine
// with no free WR-ID tag gets rnic.ErrTagSpace instead of two logical
// clients silently aliased onto one tag, and an accept after Start gets
// ErrStarted.
func (s *Server) TryAccept(clientMachine *fabric.Machine, params Params) (*Client, *Conn, error) {
	if s.started {
		return nil, nil, ErrStarted
	}
	params = params.withDefaults()
	params.F = min(max(params.F, HeaderSize+1), HeaderSize+s.cfg.MaxResponse)

	// The region (and the client's reply landing) are registered for the
	// ring's slot *capacity*, not its active depth: registration exchanges
	// buffer locations exactly once, so a runtime resize (Client.SetDepth)
	// only ever reallocates client-local slot arrays. The server scans all
	// capacity slots — inactive ones simply never hold a valid request.
	depth := params.Depth
	capacity := params.MaxDepth
	res, err := s.leaseResources(clientMachine, capacity)
	if err != nil {
		return nil, nil, err
	}

	conn := &Conn{
		srv:   s,
		id:    len(s.conns),
		depth: capacity,
		ran:   make([]uint32, capacity),
	}
	s.conns = append(s.conns, conn)

	cli := &Client{
		machine:    clientMachine,
		params:     params,
		srv:        s,
		conn:       conn,
		depth:      depth,
		maxDepth:   capacity,
		respStride: respArea(s.cfg),
		napIdleNs:  max(0, params.ReplyPollNs-clientMachine.Profile().LocalPollNs),
		slots:      make([]slot, depth),
		stages:     make([][]byte, depth),
		fetches:    make([][]byte, depth),
	}
	for i := 0; i < depth; i++ {
		cli.stages[i] = make([]byte, HeaderSize+s.cfg.MaxRequest)
		cli.fetches[i] = make([]byte, HeaderSize+s.cfg.MaxResponse)
	}
	if params.ForceReply {
		cli.mode = ModeReply
	}
	cli.replyDone = cli.replyDue
	cli.bind(res)
	return cli, conn, nil
}
