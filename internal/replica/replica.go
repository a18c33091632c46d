// Package replica builds a lease-based quorum-replicated key-value service
// on top of RFP (DESIGN.md §16), demonstrating server-to-server composition:
// every node is simultaneously an RFP server (for clients and peers) and an
// RFP client (of its peers). The paper's related work motivates the shape —
// DARE runs state-machine replication over RDMA, and the paper argues such
// RPC-structured systems can adopt RFP "without much effort".
//
// Write path: a PUT arrives at the leader, is appended to the replicated
// log and fanned out as prepares to every active follower over the leader's
// pipelined RFP connections (Post/Poll overlaps the round trips); the
// client's ack means every active follower holds the entry. Read path: any
// node with a valid lease serves GETs from its local store — the paper's
// local-read payoff — under the invariant that the commit set always covers
// every possibly-leased node, so a served read can never miss an
// acknowledged write. Failover reuses the recovery machinery of §10:
// deadline-bounded peer calls detect a dead node, its lease is waited out,
// and a rank-staggered promotion installs a higher epoch.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// Errors.
var (
	ErrBadResponse = errors.New("replica: malformed response")
	// ErrUnavailable reports a client operation that exhausted its attempts
	// without reaching a node willing to serve it (mid-failover, or quorum
	// lost). For writes the outcome is ambiguous: the entry may still
	// commit.
	ErrUnavailable = errors.New("replica: service unavailable")
)

// Config parameterizes the replicated service.
type Config struct {
	Buckets  int // store size per replica
	MaxValue int

	// LeaseNs is the follower lease term: a follower serves local reads for
	// this long after each leader contact. It is also the unit of the
	// failure-detection and promotion timers. Default 20µs of virtual time.
	LeaseNs int64

	// Pool opts every node's RFP server into multiplexed endpoints and
	// shared-slab registration (DESIGN.md §13).
	Pool core.PoolConfig
}

// graceNs bounds the in-flight delivery slack: how long after a peer call's
// terminal deadline a sent message could still arrive. 5µs is generous
// against the fabric's delay faults.
const graceNs = 5_000

// heartbeatNs is the leader's lease-refresh period.
func (c Config) heartbeatNs() int64 { return c.LeaseNs / 4 }

// peerDeadlineNs is the deadline on server-to-server calls; it bounds how
// long a prepare or heartbeat can hang on a dead peer.
func (c Config) peerDeadlineNs() int64 { return c.LeaseNs }

func (c Config) withDefaults() Config {
	if c.Buckets <= 0 {
		c.Buckets = 1 << 14
	}
	if c.MaxValue <= 0 {
		c.MaxValue = 1024
	}
	if c.LeaseNs <= 0 {
		c.LeaseNs = 20_000
	}
	return c
}

// entryRec is one replicated log entry.
type entryRec struct {
	epoch uint32
	key   uint64
	val   []byte
}

// Stats aggregates the service's counters across nodes.
type Stats struct {
	Commits       uint64 // writes acknowledged after full quorum
	LeaderReads   uint64 // reads served by a leader
	LocalReads    uint64 // reads served by followers from their local store
	RetriedReads  uint64 // reads bounced with statusRetry
	DupPrepares   uint64 // idempotently re-applied prepares
	Promotions    uint64 // successful leader promotions
	StepDowns     uint64 // leaders that yielded to a higher epoch
	Truncations   uint64 // uncommitted tail drops on epoch adoption
	MaxServeAgeNs int64  // oldest leader contact behind any served local read
}

// Service is the replicated KV deployment across a set of machines. Node 0
// starts as leader at epoch 1.
type Service struct {
	cfg   Config
	nodes []*node
}

// node is one replica: an RFP server for clients and peers, plus dialed
// data/ctrl connections to every peer. The serve proc owns the data links
// (prepare fan-out inside PUT handling); the ctrl proc owns the ctrl links
// (heartbeats, rejoin catch-up, promotion), so lease refresh keeps flowing
// while a PUT waits out a dead peer's lease.
type node struct {
	svc   *Service
	id    int
	m     *fabric.Machine
	srv   *core.Server
	store *kv.BucketStore

	data, ctrl []*core.Client // dialed to each peer; nil at self

	role     role
	epoch    uint32
	leaderID int // -1 when unknown
	crashes  int // Machine.Crashes at the last step; a jump means we crashed
	log      entryLog
	slab     []byte         // current chunk of log values (keep)
	applied  int            // entries 1..applied are in the store
	maxAdv   int            // highest commit index ever advertised to us
	pending  map[uint64]int // key -> entries in (applied, len(log)]

	// Follower timers: leaseUntil is the serve lease (set only by leased
	// leader messages); quietUntil is a promotion backoff (stepdown, failed
	// promotion) that must never enable serving.
	leaseUntil    int64
	quietUntil    int64
	lastContactNs int64

	// Leader bookkeeping, indexed by node id. anchor is the send time of
	// the last acked leased message (lower bound on the peer's lease, used
	// for read freshness); lastAlive is the latest instant a message could
	// still have been delivered (upper bound base for lease wait-out);
	// drainUntil, when nonzero, condemns the peer: no new sends until the
	// instant passes, then it is deactivated.
	active     []bool
	anchor     []int64
	lastAlive  []int64
	drainUntil []int64
	peerEnd    []int // peer log length, from acks

	// Request and ack buffers, one set per proc: a request handed to
	// core.Post/Call must not change until the call returns, and the serve
	// proc (replicate, syncPrepare) and the ctrl proc (heartbeats, rejoin,
	// promotion) run interleaved.
	prepBuf     []byte
	ackBuf      []byte
	ctrlPrepBuf []byte
	hbBuf       []byte
	ctrlAckBuf  []byte
	keyBuf      []byte // 16-byte canonical-key scratch for store applies
	hs          []core.Handle
	hsPeer      []int
	hsSend      []int64

	commits       uint64
	leaderReads   uint64
	localReads    uint64
	retriedReads  uint64
	dupPrepares   uint64
	promotions    uint64
	stepDowns     uint64
	truncations   uint64
	maxServeAgeNs int64
}

// NewService creates one replica per machine; machines[0] is the initial
// leader. A single machine degenerates to an unreplicated KV server.
func NewService(machines []*fabric.Machine, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if len(machines) == 0 {
		return nil, fmt.Errorf("replica: no machines")
	}
	if len(machines) > 64 {
		return nil, fmt.Errorf("replica: %d machines exceeds the 6-bit node id space", len(machines))
	}
	s := &Service{cfg: cfg}
	n := len(machines)
	for i, m := range machines {
		nd := &node{
			svc:         s,
			id:          i,
			m:           m,
			store:       kv.NewBucketStore(cfg.Buckets),
			leaderID:    0,
			epoch:       1,
			pending:     map[uint64]int{},
			data:        make([]*core.Client, n),
			ctrl:        make([]*core.Client, n),
			active:      make([]bool, n),
			anchor:      make([]int64, n),
			lastAlive:   make([]int64, n),
			drainUntil:  make([]int64, n),
			peerEnd:     make([]int, n),
			prepBuf:     make([]byte, prepareHdr+cfg.MaxValue),
			ackBuf:      make([]byte, 8),
			ctrlPrepBuf: make([]byte, prepareHdr+cfg.MaxValue),
			hbBuf:       make([]byte, heartbeatLen),
			ctrlAckBuf:  make([]byte, 8),
			keyBuf:      make([]byte, workload.KeySize),
		}
		nd.srv = core.NewServer(m, core.ServerConfig{
			MaxRequest:  prepareHdr + cfg.MaxValue,
			MaxResponse: 1 + cfg.MaxValue,
			Pool:        cfg.Pool,
		})
		// One serve thread, plus the ctrl thread when there are peers; both
		// issue outbound RDMA, so both register with the NIC.
		if n > 1 {
			nd.srv.AddThreads(2)
		} else {
			nd.srv.AddThreads(1)
		}
		s.nodes = append(s.nodes, nd)
	}
	s.nodes[0].role = roleLeader
	for _, nd := range s.nodes {
		if nd.id != 0 {
			// Startup grace: followers begin leased (they are in the initial
			// commit set) and do not race to promote at t=0.
			nd.leaseUntil = cfg.LeaseNs
		}
		for j := range s.nodes {
			if nd.id == 0 && j != 0 {
				s.nodes[0].active[j] = true
			}
		}
	}
	// Full mesh of peer links: each node dials every other twice (data for
	// the prepare fan-out, ctrl for heartbeats and promotion).
	peer := core.Params{
		DeadlineNs: cfg.peerDeadlineNs(),
		BackoffNs:  500,
	}
	for _, from := range s.nodes {
		for _, to := range s.nodes {
			if from.id == to.id {
				continue
			}
			from.data[to.id], _ = to.srv.Accept(from.m, peer)
			from.ctrl[to.id], _ = to.srv.Accept(from.m, peer)
		}
	}
	return s, nil
}

// Store exposes node i's store for verification.
func (s *Service) Store(i int) *kv.BucketStore { return s.nodes[i].store }

// Leader returns the current leader's node id, or -1 if no node currently
// holds the role. Meaningful only once the simulation has quiesced.
func (s *Service) Leader() int {
	for _, n := range s.nodes {
		if n.role == roleLeader {
			return n.id
		}
	}
	return -1
}

// Epoch returns the highest epoch any node has adopted.
func (s *Service) Epoch() uint32 {
	var e uint32
	for _, n := range s.nodes {
		if n.epoch > e {
			e = n.epoch
		}
	}
	return e
}

// Stats sums counters across nodes.
func (s *Service) Stats() Stats {
	var st Stats
	for _, n := range s.nodes {
		st.Commits += n.commits
		st.LeaderReads += n.leaderReads
		st.LocalReads += n.localReads
		st.RetriedReads += n.retriedReads
		st.DupPrepares += n.dupPrepares
		st.Promotions += n.promotions
		st.StepDowns += n.stepDowns
		st.Truncations += n.truncations
		if n.maxServeAgeNs > st.MaxServeAgeNs {
			st.MaxServeAgeNs = n.maxServeAgeNs
		}
	}
	return st
}

// Preload installs key 0..keys-1 in every node's store with version-0
// values, before the simulation starts.
func (s *Service) Preload(keys uint64, valueSize int) {
	val := make([]byte, valueSize)
	kb := make([]byte, workload.KeySize)
	for k := uint64(0); k < keys; k++ {
		workload.FillVersioned(val, k, 0)
		workload.EncodeKey(kb, k)
		for _, n := range s.nodes {
			n.store.Put(kb, val)
		}
	}
}

// Start spawns every node's serve and ctrl procs. All clients must be
// connected first; a second Start panics.
func (s *Service) Start() {
	for _, nd := range s.nodes {
		nd.srv.Start(1, func(int) core.Handler { return nd.handle })
		if len(s.nodes) > 1 {
			nd.m.Spawn("replica-ctrl", nd.ctrlLoop)
		}
	}
}

// ---- request dispatch ----

func (n *node) handle(p *sim.Proc, conn *core.Conn, req, resp []byte) int {
	n.checkRestart(p)
	if len(req) == 0 {
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
	switch req[0] {
	case kv.OpGet:
		return n.handleGet(p, req, resp)
	case kv.OpPut:
		return n.handlePut(p, req, resp)
	case opPrepare:
		return n.handlePrepare(p, req, resp)
	case opHeartbeat:
		return n.handleHeartbeat(p, req, resp)
	case opProbe:
		return n.handleProbe(resp)
	default:
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
}

// checkRestart detects that the machine crashed since the last time this
// node ran and clears the state that does not survive one. It runs at the
// top of every request dispatch and control tick, so no request can be
// served against pre-crash volatile state.
func (n *node) checkRestart(p *sim.Proc) {
	if c := n.m.Crashes(); c != n.crashes {
		n.crashes = c
		n.crashReset(int64(p.Now()))
	}
}

// crashReset models crash-stop-with-recovery: the replicated log is durable
// but lease timers and the leader role are not. A node that crashed holding
// a serve lease must not resume serving on it — the cluster may have
// elected past it while it was down (its probe just errored out of the
// election) — and a crashed leader must not resume the role on its stale
// freshness anchors: it re-enters as a follower and re-earns leadership
// through promotion, or rejoins the winner.
func (n *node) crashReset(now int64) {
	if n.role == roleLeader {
		n.stepDowns++
	}
	n.role = roleFollower
	n.leaseUntil = 0
	n.lastContactNs = 0
	n.quietUntil = now + n.svc.cfg.LeaseNs
	for j := range n.svc.nodes {
		n.active[j] = false
		n.anchor[j] = 0
		n.lastAlive[j] = 0
		n.drainUntil[j] = 0
	}
}

// quorumFresh reports whether the leader provably still leads: some active
// follower's lease — anchored at the send time of its last acked leased
// message, a lower bound on the true lease — is still running, so no other
// node can have been elected. Trivially true for a single-node deployment.
func (n *node) quorumFresh(now int64) bool {
	if len(n.svc.nodes) == 1 {
		return true
	}
	for j := range n.active {
		if j != n.id && n.active[j] && n.anchor[j]+n.svc.cfg.LeaseNs > now {
			return true
		}
	}
	return false
}

func (n *node) handleGet(p *sim.Proc, req, resp []byte) int {
	r, err := kv.DecodeRequest(req)
	if err != nil {
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
	now := int64(p.Now())
	switch n.role {
	case roleLeader:
		if !n.quorumFresh(now) {
			n.retriedReads++
			resp[0] = statusRetry
			return 1
		}
		n.leaderReads++
	case roleFollower:
		// A follower serves iff its lease is valid, it has applied every
		// commit any leader ever advertised to it, and the key has no
		// pending (prepared, uncommitted) entry. Together with the commit
		// rule — the commit set covers every possibly-leased node — this
		// makes the local read linearizable: the served value is the latest
		// acknowledged write of the key.
		if n.leaseUntil <= now || n.applied < n.maxAdv || n.pending[workload.DecodeKey(r.Key)] > 0 {
			n.retriedReads++
			resp[0] = statusRetry
			return 1
		}
		age := now - n.lastContactNs
		if age > n.maxServeAgeNs {
			n.maxServeAgeNs = age
		}
		n.localReads++
	default: // promoting
		n.retriedReads++
		resp[0] = statusRetry
		return 1
	}
	v, ok := n.store.Get(r.Key)
	if !ok {
		return kv.EncodeResponse(resp, kv.StatusNotFound, nil)
	}
	n.m.ComputeNs(p, 150+n.m.Profile().CopyNs(len(v)))
	return kv.EncodeResponse(resp, kv.StatusOK, v)
}

func (n *node) handlePut(p *sim.Proc, req, resp []byte) int {
	r, err := kv.DecodeRequest(req)
	if err != nil || len(r.Value) == 0 {
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
	if n.role != roleLeader {
		return respByte(resp, statusNotLeader, n.leaderByte())
	}
	e0 := n.epoch
	key, val := workload.DecodeKey(r.Key), n.keep(r.Value)
	n.m.ComputeNs(p, 150+n.m.Profile().CopyNs(len(val)))
	idx := n.log.len() + 1
	n.log.append(entryRec{epoch: e0, key: key, val: val})
	n.pending[key]++
	committed := n.replicate(p, idx, e0)
	// The fan-out yields; the ctrl proc may have stepped us down (and
	// truncated the entry) in the meantime.
	if n.role != roleLeader || n.epoch != e0 {
		return respByte(resp, statusNotLeader, n.leaderByte())
	}
	if !committed {
		// Quorum lost: the entry stays pending (it commits retroactively
		// once a later write commits past it, or is truncated by the next
		// epoch). The client sees an ambiguous outcome.
		resp[0] = statusRetry
		return 1
	}
	n.applyTo(idx)
	if idx > n.maxAdv {
		n.maxAdv = idx
	}
	n.commits++
	return kv.EncodeResponse(resp, kv.StatusOK, nil)
}

func (n *node) leaderByte() byte {
	if n.leaderID < 0 || n.leaderID >= len(n.svc.nodes) {
		return 0xff
	}
	return byte(n.leaderID)
}

// replicate fans entry idx out to every active, non-draining peer and
// reports whether the entry is committed: at least one peer is active and
// every active peer holds it. Draining peers (condemned but possibly still
// leased) are waited out before the verdict — committing past a node that
// might still serve reads would break linearizability.
func (n *node) replicate(p *sim.Proc, idx int, e0 uint32) bool {
	if len(n.svc.nodes) == 1 {
		return true
	}
	hs := n.hs[:0]
	peers := n.hsPeer[:0]
	sends := n.hsSend[:0]
	for j := range n.svc.nodes {
		if j == n.id || !n.active[j] || n.drainUntil[j] > 0 {
			continue
		}
		ent := n.log.at(idx - 1)
		msg := encodePrepare(n.prepBuf, e0, uint32(idx), uint32(n.applied), n.id, ent.key, ent.val)
		sendT := int64(p.Now())
		h, err := n.data[j].Post(p, msg)
		if err != nil {
			n.drainPeer(p, j)
			continue
		}
		hs = append(hs, h)
		peers = append(peers, j)
		sends = append(sends, sendT)
	}
	n.hs, n.hsPeer, n.hsSend = hs[:0], peers[:0], sends[:0]
	// Every posted handle must be Polled even if a step-down is detected
	// mid-fan-out: Poll is the only path that releases a ring slot, and an
	// abandoned slot stays outstanding on that data client forever —
	// re-election on this node would leak toward ErrRingFull and condemn
	// healthy followers. Past a step-down the results are merely discarded.
	for k, h := range hs {
		j := peers[k]
		stepped := n.role != roleLeader || n.epoch != e0
		nr, err := n.data[j].Poll(p, h, n.ackBuf)
		if err != nil {
			if !stepped {
				n.drainPeer(p, j)
			}
			continue
		}
		if !stepped {
			n.prepareAck(p, j, sends[k], n.ackBuf[:nr], idx, e0)
		}
	}
	if n.role != roleLeader || n.epoch != e0 {
		return false
	}
	// Wait out any peer condemned during this fan-out.
	for j := range n.svc.nodes {
		if j != n.id {
			n.finishDrain(p, j)
		}
	}
	if n.role != roleLeader || n.epoch != e0 {
		return false
	}
	any := false
	for j := range n.svc.nodes {
		if j == n.id || !n.active[j] {
			continue
		}
		if n.peerEnd[j] < idx {
			return false
		}
		any = true
	}
	return any
}

// prepareAck digests one prepare response from peer j, backfilling on gap.
func (n *node) prepareAck(p *sim.Proc, j int, sendT int64, ack []byte, idx int, e0 uint32) {
	if len(ack) < 1 {
		n.drainPeer(p, j)
		return
	}
	switch ack[0] {
	case kv.StatusOK:
		if len(ack) < 5 {
			n.drainPeer(p, j)
			return
		}
		n.noteAck(p, j, sendT, ack)
	case statusGap:
		if len(ack) < 5 {
			n.drainPeer(p, j)
			return
		}
		for i := int(u32(ack[1:5])) + 1; i <= idx; i++ {
			// Each backfill call yields: the node may have adopted a later
			// epoch meanwhile, whose log holds other entries, or none, at i.
			if n.role != roleLeader || n.epoch != e0 || i > n.log.len() {
				return
			}
			acked, failed := n.syncPrepare(p, n.data[j], n.prepBuf, n.ackBuf, j, i, e0)
			if failed {
				n.drainPeer(p, j)
			}
			if !acked {
				return
			}
		}
	case statusStaleEpoch:
		if len(ack) >= 5 {
			n.stepDownTo(p, u32(ack[1:5]))
		}
	default:
		n.drainPeer(p, j)
	}
}

// syncPrepare sends entry i to peer j as a blocking call over cli — gap
// backfill on the serve proc's data link, rejoin catch-up on the ctrl proc's
// — with that proc's own encode and ack buffers. acked reports that the peer
// holds the entry; failed, that it must be condemned, which the serve proc
// does blocking (drainPeer) and the ctrl proc does not (condemn; a later tick
// finalizes). A stale-epoch answer is neither: this node stepped down.
func (n *node) syncPrepare(p *sim.Proc, cli *core.Client, prep, ack []byte, j, i int, e0 uint32) (acked, failed bool) {
	ent := n.log.at(i - 1)
	msg := encodePrepare(prep, e0, uint32(i), uint32(n.applied), n.id, ent.key, ent.val)
	sendT := int64(p.Now())
	nr, err := cli.Call(p, msg, ack)
	switch {
	case err != nil || nr < 5:
		return false, true
	case ack[0] == kv.StatusOK:
		n.noteAck(p, j, sendT, ack)
		return true, false
	case ack[0] == statusStaleEpoch:
		n.stepDownTo(p, u32(ack[1:5]))
		return false, false
	}
	return false, true
}

// noteAck digests a leased StatusOK ack from peer j: the send time
// lower-bounds the peer's lease, the ack time upper-bounds its last
// delivery, and ack[1:5] is the end of the log it holds.
func (n *node) noteAck(p *sim.Proc, j int, sendT int64, ack []byte) {
	if sendT > n.anchor[j] {
		n.anchor[j] = sendT
	}
	if now := int64(p.Now()); now > n.lastAlive[j] {
		n.lastAlive[j] = now
	}
	if end := int(u32(ack[1:5])); end > n.peerEnd[j] {
		n.peerEnd[j] = end
	}
}

// condemn marks peer j as failing: no new sends to it, and deactivation
// once every message that might still be in flight has surely either been
// delivered (refreshing the lease one last time) or been lost. The window
// covers the peer deadline (another proc's call to j may retransmit that
// long), the lease term itself, and the delivery grace.
func (n *node) condemn(j int, now int64) {
	if !n.active[j] {
		return
	}
	until := now + n.svc.cfg.peerDeadlineNs() + n.svc.cfg.LeaseNs + graceNs
	if until > n.drainUntil[j] {
		n.drainUntil[j] = until
	}
}

// drainPeer condemns j and blocks until it can be deactivated. Only the
// serve proc calls this (the ctrl proc condemns without blocking and
// finalizes on a later tick); heartbeats to healthy peers keep flowing from
// the ctrl proc while this proc sleeps.
func (n *node) drainPeer(p *sim.Proc, j int) {
	n.condemn(j, int64(p.Now()))
	n.finishDrain(p, j)
}

// finishDrain waits out j's drain window, if any, and deactivates it.
func (n *node) finishDrain(p *sim.Proc, j int) {
	for n.drainUntil[j] != 0 {
		now := int64(p.Now())
		if now < n.drainUntil[j] {
			p.SleepUntil(sim.Time(n.drainUntil[j]))
			continue
		}
		n.active[j] = false
		n.drainUntil[j] = 0
	}
}

// slabChunk is the size of one log-value chunk.
const slabChunk = 64 << 10

// keep copies v into the node's value slab and returns the copy, capped so
// no append through it can reach the next value. The slab is append-only:
// a chunk is never reused, so a value stays valid for as long as a log
// entry holds it, truncated entries included, and a full chunk is simply
// left to the entries that point into it.
//
//rfp:hotpath
func (n *node) keep(v []byte) []byte {
	if len(v) > cap(n.slab)-len(n.slab) {
		n.newChunk(len(v))
	}
	off := len(n.slab)
	n.slab = append(n.slab, v...)
	return n.slab[off:len(n.slab):len(n.slab)]
}

// newChunk starts a fresh slab chunk with room for at least size bytes.
func (n *node) newChunk(size int) {
	n.slab = make([]byte, 0, max(slabChunk, size))
}

// applyTo applies log entries through idx to the store.
func (n *node) applyTo(idx int) {
	for n.applied < idx && n.applied < n.log.len() {
		e := n.log.at(n.applied)
		workload.EncodeKey(n.keyBuf, e.key)
		n.store.Put(n.keyBuf, e.val)
		n.applied++
		n.pendingDec(e.key)
	}
}

func (n *node) pendingDec(key uint64) {
	if c := n.pending[key]; c <= 1 {
		delete(n.pending, key)
	} else {
		n.pending[key] = c - 1
	}
}

// truncate drops the uncommitted tail on epoch adoption. Entries at or
// below applied are committed (the old leader acked them only once every
// possibly-leased node held them, and leaders are elected from that set),
// so only unacknowledged, ambiguous writes are lost — exactly the ops the
// history records with an unbounded return window.
func (n *node) truncate() {
	if n.log.len() == n.applied {
		return
	}
	for i := n.applied; i < n.log.len(); i++ {
		n.pendingDec(n.log.at(i).key)
	}
	n.log.cut(n.applied)
	n.truncations++
}

// adoptEpoch moves the node to a higher epoch under a new leader.
func (n *node) adoptEpoch(epoch uint32, leader int) {
	if n.role == roleLeader {
		n.stepDowns++
	}
	n.role = roleFollower
	n.epoch = epoch
	n.leaderID = leader
	n.truncate()
}

// stepDownTo is adoptEpoch for a leader that learned of a higher epoch from
// a response: the new leader is unknown, the serve lease is revoked (we no
// longer know we are in any commit set), and promotion is backed off.
func (n *node) stepDownTo(p *sim.Proc, epoch uint32) {
	if epoch <= n.epoch {
		return
	}
	n.adoptEpoch(epoch, -1)
	n.leaseUntil = 0
	n.quietUntil = int64(p.Now()) + n.svc.cfg.LeaseNs
}

// ---- peer-facing handlers ----

func (n *node) handlePrepare(p *sim.Proc, req, resp []byte) int {
	pm, ok := decodePrepare(req)
	if !ok || len(pm.value) == 0 {
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
	if pm.epoch < n.epoch {
		return respU32(resp, statusStaleEpoch, n.epoch)
	}
	if pm.epoch > n.epoch {
		n.adoptEpoch(pm.epoch, pm.leader)
	}
	if n.role == roleLeader {
		// Same-epoch prepare at a leader: protocol violation, reject.
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
	if n.leaderID >= 0 && pm.leader != n.leaderID {
		// Same-epoch prepare from a node that is not this epoch's leader (we
		// granted the epoch to someone else): refuse with our epoch so the
		// sender steps back and retries higher.
		return respU32(resp, statusStaleEpoch, n.epoch)
	}
	now := int64(p.Now())
	n.leaderID = pm.leader
	n.leaseUntil = now + n.svc.cfg.LeaseNs
	n.lastContactNs = now
	idx := int(pm.index)
	switch {
	case idx <= n.applied:
		// Retransmit of an applied entry: already durable, just ack.
		n.dupPrepares++
	case idx <= n.log.len():
		// Overwrite of a pending slot (retransmit, or refill after an
		// epoch's truncation raced a backfill).
		old := n.log.at(idx - 1)
		if old.epoch == pm.epoch {
			n.dupPrepares++
		}
		n.pendingDec(old.key)
		*old = entryRec{epoch: pm.epoch, key: pm.key, val: n.keep(pm.value)}
		n.pending[pm.key]++
	case idx == n.log.len()+1:
		val := n.keep(pm.value)
		n.m.ComputeNs(p, 150+n.m.Profile().CopyNs(len(val)))
		n.log.append(entryRec{epoch: pm.epoch, key: pm.key, val: val})
		n.pending[pm.key]++
	default:
		return respU32(resp, statusGap, uint32(n.log.len()))
	}
	n.advertise(int(pm.commit))
	return respU32(resp, kv.StatusOK, uint32(n.log.len()))
}

// advertise digests a commit index heard from a leader: remember the
// high-water mark (the serve gate) and apply what we hold.
func (n *node) advertise(commit int) {
	if commit > n.maxAdv {
		n.maxAdv = commit
	}
	if commit > n.applied {
		n.applyTo(commit)
	}
}

func (n *node) handleHeartbeat(p *sim.Proc, req, resp []byte) int {
	hm, ok := decodeHeartbeat(req)
	if !ok {
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
	leader := int(hm.leader & 0x3f)
	leased := hm.leader&leasedBit != 0
	now := int64(p.Now())
	if hm.epoch < n.epoch {
		return respU32(resp, statusStaleEpoch, n.epoch)
	}
	if hm.epoch > n.epoch {
		// Promotion probe (or a new leader's first contact). Grant only if
		// no current leader can still be alive from our point of view, and
		// only to a candidate whose log covers ours — a shorter log is
		// missing committed writes.
		if n.role == roleLeader && n.quorumFresh(now) {
			resp[0] = statusLeaseHeld
			return 1
		}
		if n.role != roleLeader && n.leaseUntil > now {
			resp[0] = statusLeaseHeld
			return 1
		}
		if n.log.len() > int(hm.logEnd) {
			resp[0] = statusBehind
			return 1
		}
		n.adoptEpoch(hm.epoch, leader)
		// Granting is not a lease: the candidate may yet abort (rejected by a
		// later peer), and a grantee serving under that ghost epoch would
		// miss writes the old-epoch leader keeps committing via its own
		// granters. The serve lease arrives only with the winner's
		// post-election leased heartbeat; meanwhile hold our own promotion
		// back long enough for the winner to finish its lease wait-out and
		// lease us.
		leased = false
		c := n.svc.cfg
		if q := now + 2*c.LeaseNs + c.peerDeadlineNs() + graceNs; q > n.quietUntil {
			n.quietUntil = q
		}
	} else if n.role == roleLeader {
		// Same-epoch heartbeat at the leader: protocol violation.
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	} else if n.leaderID >= 0 && leader != n.leaderID {
		// Same-epoch heartbeat from a node that is not this epoch's leader: a
		// rival candidate probing an epoch we already granted away. Refuse
		// with our epoch so it backs off and retries strictly higher.
		return respU32(resp, statusStaleEpoch, n.epoch)
	}
	n.leaderID = leader
	if leased {
		n.leaseUntil = now + n.svc.cfg.LeaseNs
		n.lastContactNs = now
	}
	n.m.ComputeNs(p, 100)
	n.advertise(int(hm.commit))
	return respU32(resp, kv.StatusOK, uint32(n.log.len()))
}

// leasedBit in the heartbeat leader byte marks the receiver as active: only
// leased heartbeats extend the serve lease. Rejoin probes to deactivated
// peers and promotion probes clear it (and the receiver ignores it on any
// epoch-adopting message), so a node outside the current commit set can
// never serve reads.
const leasedBit = 0x80

func (n *node) handleProbe(resp []byte) int {
	resp[0] = kv.StatusOK
	resp[1] = byte(n.role)
	resp[2] = n.leaderByte()
	binary.LittleEndian.PutUint32(resp[3:7], n.epoch)
	return 7
}

// ---- control loop ----

// ctrlLoop is the per-node control proc: as leader it refreshes leases and
// reintegrates peers; as follower it watches for lease expiry and runs the
// rank-staggered promotion. It idles while the machine is crashed, like the
// serve loop; the first tick after a restart (like the first request
// dispatch) runs crashReset, so no pre-crash lease or role survives into
// the new incarnation.
func (n *node) ctrlLoop(p *sim.Proc) {
	for {
		if n.m.Down() {
			p.Sleep(10 * sim.Microsecond)
			continue
		}
		n.checkRestart(p)
		switch n.role {
		case roleLeader:
			n.leaderTick(p)
		case roleFollower:
			n.followerTick(p)
		}
		p.Sleep(sim.Duration(n.svc.cfg.heartbeatNs()))
	}
}

func (n *node) leaderTick(p *sim.Proc) {
	e0 := n.epoch
	for j := range n.svc.nodes {
		if j == n.id || n.role != roleLeader || n.epoch != e0 {
			continue
		}
		now := int64(p.Now())
		if n.drainUntil[j] != 0 {
			if now < n.drainUntil[j] {
				continue // condemned: no sends until the lease is out
			}
			n.active[j] = false
			n.drainUntil[j] = 0
		}
		lb := byte(n.id)
		if n.active[j] {
			lb |= leasedBit
		}
		sendT := now
		msg := encodeHeartbeat(n.hbBuf, n.epoch, uint32(n.applied), uint32(n.log.len()), int(lb))
		nr, err := n.ctrl[j].Call(p, msg, n.ctrlAckBuf)
		if err != nil {
			n.condemn(j, int64(p.Now()))
			continue
		}
		if nr >= 5 && n.ctrlAckBuf[0] == statusStaleEpoch {
			n.stepDownTo(p, u32(n.ctrlAckBuf[1:5]))
			return
		}
		if nr < 5 || n.ctrlAckBuf[0] != kv.StatusOK {
			continue
		}
		if now = int64(p.Now()); now > n.lastAlive[j] {
			n.lastAlive[j] = now
		}
		if end := int(u32(n.ctrlAckBuf[1:5])); end > n.peerEnd[j] {
			n.peerEnd[j] = end
		} else if !n.active[j] {
			n.peerEnd[j] = int(u32(n.ctrlAckBuf[1:5]))
		}
		if n.active[j] {
			if sendT > n.anchor[j] {
				n.anchor[j] = sendT
			}
		} else {
			n.rejoin(p, j, e0)
		}
	}
	n.tryCommitTail()
}

// rejoin reintegrates a responsive inactive peer: activate it first (so
// concurrent PUT fan-outs include it — the commit rule must cover it from
// the instant it can next be leased), then stream it the log it missed,
// then grant its lease with a leased heartbeat.
func (n *node) rejoin(p *sim.Proc, j int, e0 uint32) {
	n.active[j] = true
	n.anchor[j] = 0
	for i := n.peerEnd[j] + 1; i <= n.log.len(); i++ {
		if n.role != roleLeader || n.epoch != e0 {
			return
		}
		acked, failed := n.syncPrepare(p, n.ctrl[j], n.ctrlPrepBuf, n.ctrlAckBuf, j, i, e0)
		if failed {
			n.condemn(j, int64(p.Now()))
		}
		if !acked {
			return
		}
	}
	if n.role != roleLeader || n.epoch != e0 {
		return
	}
	sendT := int64(p.Now())
	msg := encodeHeartbeat(n.hbBuf, n.epoch, uint32(n.applied), uint32(n.log.len()), int(byte(n.id)|leasedBit))
	nr, err := n.ctrl[j].Call(p, msg, n.ctrlAckBuf)
	if err != nil || nr < 5 || n.ctrlAckBuf[0] != kv.StatusOK {
		n.condemn(j, int64(p.Now()))
		return
	}
	n.noteAck(p, j, sendT, n.ctrlAckBuf)
}

// tryCommitTail commits entries that every active peer is known to hold —
// this is how a write orphaned by a lost quorum (client already got an
// ambiguous answer) or inherited by a new leader eventually commits without
// waiting for the next PUT.
func (n *node) tryCommitTail() {
	if n.applied >= n.log.len() || len(n.svc.nodes) == 1 {
		return
	}
	idx := n.log.len()
	any := false
	for j := range n.svc.nodes {
		if j == n.id || !n.active[j] {
			continue
		}
		if n.drainUntil[j] != 0 || n.peerEnd[j] < idx {
			return
		}
		any = true
	}
	if !any {
		return
	}
	n.applyTo(idx)
	if idx > n.maxAdv {
		n.maxAdv = idx
	}
}

func (n *node) followerTick(p *sim.Proc) {
	now := int64(p.Now())
	expiry := n.leaseUntil
	if n.quietUntil > expiry {
		expiry = n.quietUntil
	}
	// Rank-staggered promotion: node i waits (1+i) lease terms past its
	// lease expiry, so lower-ranked survivors win uncontested.
	if now <= expiry+n.svc.cfg.LeaseNs*int64(1+n.id) {
		return
	}
	n.promote(p)
}

// promote runs one promotion attempt: probe every peer with epoch+1; any
// rejection (a live leader's quorum, a peer's valid lease, or a peer with a
// longer log) aborts. Winning requires at least one grant — and, when any
// peer was unreachable, waiting out the longest serve lease such a peer
// could still hold (it may have crashed leased, missing the election
// entirely), exactly mirroring the leader-side condemn/drain window. The
// winner then leads exactly the granters: each is streamed the log tail it
// misses and only then granted its serve lease by a post-election leased
// heartbeat — the probe itself never leases, so a granter of an aborted
// candidate cannot serve under a ghost epoch.
func (n *node) promote(p *sim.Proc) {
	promoEpoch := n.epoch + 1
	n.role = rolePromoting
	granted := make([]bool, len(n.svc.nodes))
	grants := 0
	reject := false
	unreachable := false
	for j := range n.svc.nodes {
		if j == n.id {
			continue
		}
		if n.epoch >= promoEpoch {
			// A higher epoch reached us mid-promotion: someone else won.
			reject = true
			break
		}
		msg := encodeHeartbeat(n.hbBuf, promoEpoch, uint32(n.applied), uint32(n.log.len()), n.id)
		nr, err := n.ctrl[j].Call(p, msg, n.ctrlAckBuf)
		if err != nil || nr < 1 {
			unreachable = true // does not join; its lease is waited out below
			continue
		}
		switch n.ctrlAckBuf[0] {
		case kv.StatusOK:
			if nr >= 5 {
				granted[j] = true
				grants++
				n.peerEnd[j] = int(u32(n.ctrlAckBuf[1:5]))
				n.lastAlive[j] = int64(p.Now())
			}
		case statusStaleEpoch:
			if nr >= 5 && u32(n.ctrlAckBuf[1:5]) > n.epoch {
				n.epoch = u32(n.ctrlAckBuf[1:5])
			}
			reject = true
		case statusLeaseHeld, statusBehind:
			reject = true
		}
		if reject {
			break
		}
	}
	if !reject && grants > 0 && unreachable && n.role == rolePromoting {
		// Wait out the unreachable peers before assuming the role: any serve
		// lease one of them holds was granted by a message sent before this
		// probe round ended (every old-epoch sender has by now died, granted
		// us, or stepped down — a live rejecting leader would have aborted
		// the attempt), so it can run at most one delivery window plus one
		// lease term past this instant. Committing before that would let a
		// crashed-leased peer restart and serve reads that miss our writes.
		c := n.svc.cfg
		p.SleepUntil(sim.Time(int64(p.Now()) + c.peerDeadlineNs() + c.LeaseNs + graceNs))
	}
	if reject || grants == 0 || n.role != rolePromoting || n.epoch >= promoEpoch {
		if n.role == rolePromoting {
			n.role = roleFollower
		}
		if grants > 0 && promoEpoch > n.epoch {
			// Peers adopted the probe epoch; continue from it so the next
			// attempt moves strictly forward.
			n.epoch = promoEpoch
		}
		n.quietUntil = int64(p.Now()) + n.svc.cfg.LeaseNs
		return
	}
	n.epoch = promoEpoch
	n.role = roleLeader
	n.leaderID = n.id
	n.promotions++
	for j := range n.svc.nodes {
		if j == n.id {
			continue
		}
		n.active[j] = false
		n.anchor[j] = 0
		n.drainUntil[j] = 0
	}
	// Reintegrate each granter: activate it, stream it whatever tail it
	// misses, then grant its serve lease with a leased heartbeat (which also
	// plants the freshness anchor — the probe round planted none).
	for j := range n.svc.nodes {
		if j == n.id || !granted[j] {
			continue
		}
		if n.role != roleLeader || n.epoch != promoEpoch {
			return
		}
		n.rejoin(p, j, promoEpoch)
	}
	n.tryCommitTail()
}

func u32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
