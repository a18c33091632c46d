package replica

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"rfp/internal/core"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestFailoverElectsNewLeader crashes the leader long enough for a
// follower's lease to expire and the rank-staggered promotion to run, then
// restarts it. The group must elect exactly one new leader, serve writes in
// the new epoch, and step the stale leader down when it comes back.
func TestFailoverElectsNewLeader(t *testing.T) {
	r := newRig(t, 3, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()

	// Crash the initial leader between 100µs and 600µs: far longer than
	// lease (20µs) + node 1's promotion delay (40µs).
	r.env.At(sim.Time(100*sim.Microsecond), r.cl.Server.Fail)
	r.env.At(sim.Time(600*sim.Microsecond), r.cl.Server.Restart)

	acked := 0
	var failedAt []int // write numbers with ambiguous outcome
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		val := make([]byte, 32)
		for v := uint32(1); v <= 200; v++ {
			workload.FillVersioned(val, 3, v)
			if err := cli.Put(p, 3, val); err != nil {
				if !errors.Is(err, ErrUnavailable) {
					t.Errorf("put %d: %v", v, err)
					return
				}
				failedAt = append(failedAt, int(v))
				continue
			}
			acked++
		}
	})
	r.env.Run(sim.Time(20 * sim.Millisecond))

	st := r.svc.Stats()
	if st.Promotions < 1 {
		t.Fatalf("no promotion happened: %+v", st)
	}
	if lead := r.svc.Leader(); lead == -1 {
		t.Fatalf("no leader after failover")
	}
	if st.StepDowns < 1 {
		t.Fatalf("restarted stale leader never stepped down: %+v", st)
	}
	if r.svc.Epoch() < 2 {
		t.Fatalf("epoch did not advance: %d", r.svc.Epoch())
	}
	// The vast majority of writes must survive the failover window.
	if acked < 150 {
		t.Fatalf("only %d/200 writes acked (failed: %v)", acked, failedAt)
	}
	// Every node that is leader or actively following agrees on the last
	// acked version once quiesced (ambiguous trailing writes may add one).
	key := workload.EncodeKey(make([]byte, workload.KeySize), 3)
	lead := r.svc.Leader()
	lv, ok := r.svc.Store(lead).Get(key)
	if !ok {
		t.Fatalf("leader store missing the key")
	}
	if v, okv := workload.ParseVersioned(lv, 3); !okv || int(v) < acked {
		t.Fatalf("leader at version %d (ok=%v), %d acked", v, okv, acked)
	}
}

// TestLeaseStraddlesShortCrash crashes the leader for just longer than one
// lease term: the leader's lease-era state (granted leases, freshness
// anchors, the role itself) straddles the crash window, but none of it may
// survive the restart — roles and lease timers are volatile under
// crash-stop-with-recovery. The restarted node must come back as a
// follower, a survivor must win a clean election once its rank delay runs
// out (and not a tick before), and writes must flow again in the new epoch.
func TestLeaseStraddlesShortCrash(t *testing.T) {
	r := newRig(t, 3, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()

	// Down for 30µs: longer than the lease (20µs), shorter than node 1's
	// lease-expiry + promotion delay (20 + 40µs) — the election happens
	// after the restart, with every node reachable.
	r.env.At(sim.Time(100*sim.Microsecond), r.cl.Server.Fail)
	r.env.At(sim.Time(130*sim.Microsecond), r.cl.Server.Restart)

	acked := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		val := make([]byte, 32)
		for v := uint32(1); v <= 100; v++ {
			workload.FillVersioned(val, 5, v)
			if err := cli.Put(p, 5, val); err == nil {
				acked++
			}
		}
	})
	r.env.Run(sim.Time(10 * sim.Millisecond))

	st := r.svc.Stats()
	if st.Promotions < 1 {
		t.Fatalf("no election after the leader's crash-restart: %+v", st)
	}
	if st.StepDowns < 1 {
		t.Fatalf("crashed leader kept its role across the restart: %+v", st)
	}
	lead := r.svc.Leader()
	if lead == -1 {
		t.Fatalf("no leader after the handoff")
	}
	if lead == 0 {
		t.Fatalf("restarted leader resumed the role on pre-crash state")
	}
	if r.svc.Epoch() != 2 {
		t.Fatalf("epoch = %d after one handoff, want 2", r.svc.Epoch())
	}
	if acked < 85 {
		t.Fatalf("only %d/100 writes acked around a 30µs crash", acked)
	}
}

// TestCrashClearsLeaseAndRole pins the crash-stop-with-recovery reset: a
// follower that crashes holding a valid serve lease must refuse local reads
// after the restart (its lease timer is volatile — the cluster may have
// elected past it while it was down), and a crashed leader must restart as
// a follower rather than resume on its stale freshness anchors.
func TestCrashClearsLeaseAndRole(t *testing.T) {
	r := newRig(t, 3, Config{})
	r.svc.Preload(4, 32)
	lead, fol := r.svc.nodes[0], r.svc.nodes[1]
	ran := false
	r.cl.Clients[0].Spawn("driver", func(p *sim.Proc) {
		req := make([]byte, 64)
		resp := make([]byte, 64)
		now := int64(p.Now())

		// The follower holds a valid lease and is fully applied: local
		// reads serve.
		fol.leaseUntil = now + 1_000_000
		fol.handle(p, nil, kv.EncodeGet(req, 1), resp)
		if resp[0] != kv.StatusOK {
			t.Errorf("leased follower read: status 0x%02x", resp[0])
		}

		// Crash and restart the follower's machine: the first dispatch of
		// the new incarnation must run the reset and bounce the read, even
		// though the old lease timestamp lies in the future.
		fol.m.Fail()
		fol.m.Restart()
		fol.handle(p, nil, kv.EncodeGet(req, 1), resp)
		if resp[0] != statusRetry {
			t.Errorf("post-restart follower read: status 0x%02x, want retry", resp[0])
		}
		if fol.leaseUntil != 0 {
			t.Errorf("lease survived the crash: %d", fol.leaseUntil)
		}

		// Crash and restart the leader: it must demote, refuse writes, and
		// count the lost role as a step-down.
		lead.m.Fail()
		lead.m.Restart()
		val := make([]byte, 32)
		workload.FillVersioned(val, 1, 1)
		lead.handle(p, nil, kv.EncodePut(req, 1, val), resp)
		if resp[0] != statusNotLeader {
			t.Errorf("post-restart leader write: status 0x%02x, want not-leader", resp[0])
		}
		if lead.role != roleFollower || lead.stepDowns != 1 {
			t.Errorf("leader after restart: role=%v stepDowns=%d", lead.role, lead.stepDowns)
		}
		for j := range lead.active {
			if lead.active[j] || lead.anchor[j] != 0 {
				t.Errorf("peer %d bookkeeping survived the crash: active=%v anchor=%d",
					j, lead.active[j], lead.anchor[j])
			}
		}
		ran = true
	})
	r.env.Run(sim.Time(1 * sim.Millisecond))
	if !ran {
		t.Fatal("driver never ran")
	}
}

// TestPromotionProbeDoesNotLease pins the grant/lease split: granting a
// promotion probe adopts the epoch but must not extend the granter's serve
// lease (the candidate may abort, leaving a ghost epoch), even if the probe
// carries the leased bit. The lease arrives only with a same-epoch leased
// message from the election's winner, and a same-epoch heartbeat from
// anyone else is refused.
func TestPromotionProbeDoesNotLease(t *testing.T) {
	r := newRig(t, 3, Config{})
	n := r.svc.nodes[1]
	ran := false
	r.cl.Clients[0].Spawn("driver", func(p *sim.Proc) {
		buf := make([]byte, heartbeatLen)
		resp := make([]byte, 16)
		n.leaseUntil = 0 // lease expired: the probe is grantable

		// Node 2 probes with epoch 2, (incorrectly) asking for a lease.
		msg := encodeHeartbeat(buf, 2, 0, 0, 2|leasedBit)
		n.handleHeartbeat(p, msg, resp)
		if resp[0] != kv.StatusOK {
			t.Errorf("probe not granted: status 0x%02x", resp[0])
		}
		if n.epoch != 2 || n.leaderID != 2 {
			t.Errorf("probe not adopted: epoch=%d leader=%d", n.epoch, n.leaderID)
		}
		if now := int64(p.Now()); n.leaseUntil > now {
			t.Errorf("promotion probe granted a lease: leaseUntil=%d now=%d", n.leaseUntil, now)
		}
		if n.quietUntil <= int64(p.Now()) {
			t.Errorf("granting did not back off our own promotion")
		}

		// A same-epoch probe from a rival candidate is refused with our
		// epoch — the granted epoch is not up for grabs twice.
		msg = encodeHeartbeat(buf, 2, 0, 0, 0)
		n.handleHeartbeat(p, msg, resp)
		if resp[0] != statusStaleEpoch || u32(resp[1:5]) != 2 {
			t.Errorf("rival same-epoch probe: status 0x%02x epoch %d", resp[0], u32(resp[1:5]))
		}

		// The winner's post-election leased heartbeat is what leases us.
		msg = encodeHeartbeat(buf, 2, 0, 0, 2|leasedBit)
		n.handleHeartbeat(p, msg, resp)
		if resp[0] != kv.StatusOK {
			t.Errorf("winner heartbeat: status 0x%02x", resp[0])
		}
		if now := int64(p.Now()); n.leaseUntil <= now {
			t.Errorf("winner's leased heartbeat did not lease: leaseUntil=%d now=%d", n.leaseUntil, now)
		}
		ran = true
	})
	r.env.Run(sim.Time(1 * sim.Millisecond))
	if !ran {
		t.Fatal("driver never ran")
	}
}

// TestHandoffReadsNeverStale drives a single client issuing alternating
// writes and local reads across a leader failover. Because the client is
// sequential, every read must observe at least the last version it was
// acked — anything older is a stale read served by a node outside the
// commit set, exactly what the lease interlock must prevent.
func TestHandoffReadsNeverStale(t *testing.T) {
	r := newRig(t, 3, Config{})
	r.svc.Preload(8, 32)
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), true)
	r.svc.Start()

	r.env.At(sim.Time(150*sim.Microsecond), r.cl.Server.Fail)
	r.env.At(sim.Time(700*sim.Microsecond), r.cl.Server.Restart)

	stale := 0
	reads := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		val := make([]byte, 32)
		out := make([]byte, 64)
		ackedVer := uint32(0)
		maxIssued := uint32(0)
		for i := 0; i < 300; i++ {
			v := uint32(i + 1)
			workload.FillVersioned(val, 2, v)
			maxIssued = v
			if err := cli.Put(p, 2, val); err == nil {
				ackedVer = v
			}
			n, ok, err := cli.Get(p, 2, out)
			if err != nil {
				continue // unavailable mid-failover: constrains nothing
			}
			if !ok {
				stale++ // the key is preloaded; a miss is a lost write
				continue
			}
			reads++
			got, okv := workload.ParseVersioned(out[:n], 2)
			if !okv || got < ackedVer || got > maxIssued {
				stale++
			}
		}
	})
	r.env.Run(sim.Time(30 * sim.Millisecond))
	if reads < 200 {
		t.Fatalf("only %d/300 reads served", reads)
	}
	if stale != 0 {
		t.Fatalf("%d stale reads across the handoff", stale)
	}
	if st := r.svc.Stats(); st.Promotions < 1 {
		t.Fatalf("failover never happened: %+v", st)
	}
}

// TestQuorumLossBlocksOps takes a 2-node group and crashes the only
// follower: the leader must stop acking writes (it cannot cover the
// follower's possible lease) and stop serving reads once its freshness
// anchor expires, then resume both after the follower rejoins.
func TestQuorumLossBlocksOps(t *testing.T) {
	r := newRig(t, 2, Config{})
	r.svc.Preload(4, 32)
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()

	follower := r.peers[0]
	r.env.At(sim.Time(100*sim.Microsecond), follower.Fail)
	r.env.At(sim.Time(2*sim.Millisecond), follower.Restart)

	type probe struct {
		at    int64
		wrOK  bool
		rdOK  bool
		rdErr bool
	}
	var probes []probe
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		val := make([]byte, 32)
		out := make([]byte, 64)
		for i := 0; i < 40; i++ {
			workload.FillVersioned(val, 1, uint32(i+1))
			werr := cli.Put(p, 1, val)
			_, rok, rerr := cli.Get(p, 1, out)
			probes = append(probes, probe{
				at:   int64(p.Now()),
				wrOK: werr == nil, rdOK: rok, rdErr: rerr != nil,
			})
			p.Sleep(100 * sim.Microsecond)
		}
	})
	r.env.Run(sim.Time(30 * sim.Millisecond))

	var blockedWrites, blockedReads, lateWrites int
	for _, pr := range probes {
		// Well inside the outage, past the drain window (~45µs after the
		// crash at 100µs), both paths must refuse.
		if pr.at > int64(300*sim.Microsecond) && pr.at < int64(1900*sim.Microsecond) {
			if !pr.wrOK {
				blockedWrites++
			}
			if !pr.rdOK || pr.rdErr {
				blockedReads++
			}
		}
		// Well after the restart, both must work again.
		if pr.at > int64(5*sim.Millisecond) && pr.wrOK {
			lateWrites++
		}
	}
	if blockedWrites == 0 || blockedReads == 0 {
		t.Fatalf("quorum loss did not block ops (writes blocked %d, reads blocked %d)",
			blockedWrites, blockedReads)
	}
	if lateWrites == 0 {
		t.Fatalf("writes never resumed after the follower rejoined")
	}
}

// TestFollowerRejoinReplaysLog crashes a follower, keeps writing through
// the remaining quorum, and verifies the restarted follower is streamed the
// missed suffix and converges to the leader's state.
func TestFollowerRejoinReplaysLog(t *testing.T) {
	r := newRig(t, 3, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()

	follower := r.peers[0] // node 1
	r.env.At(sim.Time(100*sim.Microsecond), follower.Fail)
	r.env.At(sim.Time(1*sim.Millisecond), follower.Restart)

	acked := 0
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		val := make([]byte, 32)
		for i := 0; i < 150; i++ {
			key := uint64(i % 16)
			workload.FillVersioned(val, key, uint32(i+1))
			if err := cli.Put(p, key, val); err == nil {
				acked++
			}
			p.Sleep(20 * sim.Microsecond)
		}
	})
	r.env.Run(sim.Time(30 * sim.Millisecond))

	if acked < 140 {
		t.Fatalf("only %d/150 writes acked with a 2/3 quorum", acked)
	}
	if st := r.svc.Stats(); st.Promotions != 0 {
		t.Fatalf("a follower crash must not change leaders: %+v", st)
	}
	// The rejoined follower's log matches the leader's applied prefix, and
	// its store agrees key by key.
	lead, rej := r.svc.nodes[0], r.svc.nodes[1]
	if rej.applied != lead.applied {
		t.Fatalf("rejoined follower applied %d, leader %d", rej.applied, lead.applied)
	}
	kb := make([]byte, workload.KeySize)
	for k := uint64(0); k < 16; k++ {
		workload.EncodeKey(kb, k)
		lv, lok := lead.store.Get(kb)
		fv, fok := rej.store.Get(kb)
		if lok != fok || (lok && string(lv) != string(fv)) {
			t.Fatalf("key %d diverged after rejoin: leader ok=%v follower ok=%v", k, lok, fok)
		}
	}
}

// TestPrepareIdempotent drives the prepare handler directly with duplicate
// and out-of-order messages: replays must not double-apply, and gaps must
// be rejected with the follower's log end.
func TestPrepareIdempotent(t *testing.T) {
	r := newRig(t, 2, Config{})
	n := r.svc.nodes[1]
	ran := false
	r.cl.Clients[0].Spawn("driver", func(p *sim.Proc) {
		buf := make([]byte, prepareHdr+64)
		resp := make([]byte, 16)
		val := []byte("value-1")
		// Entry 1, then its exact duplicate.
		msg := encodePrepare(buf, 1, 1, 0, 0, 7, val)
		if nr := n.handlePrepare(p, msg, resp); resp[0] != kv.StatusOK || nr < 5 {
			t.Errorf("first prepare: status 0x%02x", resp[0])
		}
		msg = encodePrepare(buf, 1, 1, 0, 0, 7, val)
		if n.handlePrepare(p, msg, resp); resp[0] != kv.StatusOK {
			t.Errorf("dup prepare: status 0x%02x", resp[0])
		}
		if n.log.len() != 1 || n.pending[7] != 1 {
			t.Errorf("dup changed the log: len=%d pending=%d", n.log.len(), n.pending[7])
		}
		if n.dupPrepares == 0 {
			t.Errorf("duplicate not counted")
		}
		// A gap: index 5 with log end 1.
		msg = encodePrepare(buf, 1, 5, 0, 0, 9, val)
		if n.handlePrepare(p, msg, resp); resp[0] != statusGap {
			t.Errorf("gap prepare: status 0x%02x", resp[0])
		}
		if end := u32(resp[1:5]); end != 1 {
			t.Errorf("gap log end = %d", end)
		}
		// Entry 2 with commit=2 applies both entries exactly once.
		msg = encodePrepare(buf, 1, 2, 2, 0, 7, []byte("value-2"))
		if n.handlePrepare(p, msg, resp); resp[0] != kv.StatusOK {
			t.Errorf("entry 2: status 0x%02x", resp[0])
		}
		if n.applied != 2 || len(n.pending) != 0 {
			t.Errorf("apply state: applied=%d pending=%v", n.applied, n.pending)
		}
		kb := workload.EncodeKey(make([]byte, workload.KeySize), 7)
		if v, ok := n.store.Get(kb); !ok || string(v) != "value-2" {
			t.Errorf("store after apply: ok=%v v=%q", ok, v)
		}
		// Replaying the now-applied entry 1 is still just an ack.
		msg = encodePrepare(buf, 1, 1, 2, 0, 7, val)
		if n.handlePrepare(p, msg, resp); resp[0] != kv.StatusOK {
			t.Errorf("replay of applied entry: status 0x%02x", resp[0])
		}
		if v, ok := n.store.Get(kb); !ok || string(v) != "value-2" {
			t.Errorf("replay rolled the store back: ok=%v v=%q", ok, v)
		}
		// A stale epoch is rejected with ours.
		n.epoch = 3
		msg = encodePrepare(buf, 2, 3, 0, 0, 7, val)
		if n.handlePrepare(p, msg, resp); resp[0] != statusStaleEpoch {
			t.Errorf("stale-epoch prepare: status 0x%02x", resp[0])
		}
		if e := u32(resp[1:5]); e != 3 {
			t.Errorf("stale-epoch payload = %d", e)
		}
		ran = true
	})
	r.env.Run(sim.Time(1 * sim.Millisecond))
	if !ran {
		t.Fatal("driver never ran")
	}
}

// TestEpochAdoptionTruncatesPendingTail feeds a follower an uncommitted
// entry, then a higher-epoch prepare: the pending tail must be dropped (its
// write was never acked) and replaced by the new epoch's entry.
func TestEpochAdoptionTruncatesPendingTail(t *testing.T) {
	r := newRig(t, 2, Config{})
	n := r.svc.nodes[1]
	ran := false
	r.cl.Clients[0].Spawn("driver", func(p *sim.Proc) {
		buf := make([]byte, prepareHdr+64)
		resp := make([]byte, 16)
		// Committed entry 1, pending entry 2 at epoch 1.
		n.handlePrepare(p, encodePrepare(buf, 1, 1, 1, 0, 4, []byte("committed")), resp)
		n.handlePrepare(p, encodePrepare(buf, 1, 2, 1, 0, 5, []byte("pending")), resp)
		if n.applied != 1 || n.log.len() != 2 || n.pending[5] != 1 {
			t.Errorf("setup: applied=%d log=%d pending=%v", n.applied, n.log.len(), n.pending)
		}
		// New leader at epoch 2 re-prepares index 2 with a different write.
		n.handlePrepare(p, encodePrepare(buf, 2, 2, 1, 1, 6, []byte("epoch2")), resp)
		if resp[0] != kv.StatusOK {
			t.Errorf("epoch-2 prepare: status 0x%02x", resp[0])
		}
		if n.epoch != 2 || n.truncations != 1 {
			t.Errorf("adoption: epoch=%d truncations=%d", n.epoch, n.truncations)
		}
		if n.pending[5] != 0 || n.pending[6] != 1 || n.log.len() != 2 {
			t.Errorf("tail not replaced: pending=%v log=%d", n.pending, n.log.len())
		}
		if n.leaderID != 1 {
			t.Errorf("leader not adopted: %d", n.leaderID)
		}
		ran = true
	})
	r.env.Run(sim.Time(1 * sim.Millisecond))
	if !ran {
		t.Fatal("driver never ran")
	}
}

// TestRejoinPreparesCarryTheirOwnEntry drives TestFailoverElectsNewLeader's
// crash and rejoin with PUTs of mixed value sizes in flight. While the new
// leader's ctrl proc streams the restarted node the log it missed, its serve
// proc keeps fanning fresh prepares out to the same peer — parked inside
// core.Post while the data link reconnects. A prepare carries no length field
// (the value is the rest of the message), so if the two procs shared an
// encode buffer the staged prepare would be another entry's bytes cut to this
// entry's length. The stray is usually masked (the follower has applied that
// index by the time it lands, and backfill re-sends the entry that was
// lost), so the assertion sits at the receivers: every prepare a node is
// handed must be byte-equal to its sender's log[index]. Afterwards every
// node's log and store must equal the leader's, entry for entry.
func TestRejoinPreparesCarryTheirOwnEntry(t *testing.T) {
	r := newRig(t, 3, Config{MaxValue: 256})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)

	// Service.Start, with the prepare check wrapped around each handler.
	prepares := 0
	for _, nd := range r.svc.nodes {
		nd.srv.Start(1, func(int) core.Handler {
			return func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
				if pm, ok := decodePrepare(req); ok && req[0] == opPrepare {
					prepares++
					from := r.svc.nodes[pm.leader]
					if int(pm.index) > from.log.len() {
						t.Errorf("t=%d node %d handed a prepare for log[%d]; sender %d holds %d entries",
							p.Now(), nd.id, pm.index, from.id, from.log.len())
					} else if ent := from.log.at(int(pm.index) - 1); ent.key != pm.key || string(ent.val) != string(pm.value) {
						t.Errorf("t=%d node %d handed a prepare for log[%d] carrying (key %d, %d B); sender %d's entry is (key %d, %d B)",
							p.Now(), nd.id, pm.index, pm.key, len(pm.value), from.id, ent.key, len(ent.val))
					}
				}
				return nd.handle(p, c, req, resp)
			}
		})
		nd.m.Spawn("replica-ctrl", nd.ctrlLoop)
	}
	r.env.At(sim.Time(100*sim.Microsecond), r.cl.Server.Fail)
	r.env.At(sim.Time(600*sim.Microsecond), r.cl.Server.Restart)

	const keys = 8
	r.cl.Clients[0].Spawn("writer", func(p *sim.Proc) {
		val := make([]byte, 256)
		for v := uint32(1); v <= 400; v++ {
			key := uint64(v % keys)
			size := workload.VersionedMin + int(v*37)%200
			workload.FillVersioned(val[:size], key, v)
			_ = cli.Put(p, key, val[:size]) // ambiguous outcomes are fine here
		}
	})
	r.env.Run(sim.Time(40 * sim.Millisecond))

	if st := r.svc.Stats(); st.Promotions < 1 || st.StepDowns < 1 || prepares < 400 {
		t.Fatalf("the failover and rejoin did not happen (%d prepares): %+v", prepares, st)
	}
	lead := r.svc.nodes[r.svc.Leader()]
	kb := make([]byte, workload.KeySize)
	for _, nd := range r.svc.nodes {
		if nd == lead {
			continue
		}
		if nd.log.len() != lead.log.len() || nd.applied != lead.applied {
			t.Fatalf("node %d: log %d applied %d, leader log %d applied %d",
				nd.id, nd.log.len(), nd.applied, lead.log.len(), lead.applied)
		}
		for i := range lead.log.len() {
			// Not the epoch: an inherited entry is re-sent under the new
			// leader's epoch.
			if le, fe := lead.log.at(i), nd.log.at(i); le.key != fe.key || string(le.val) != string(fe.val) {
				t.Fatalf("node %d log[%d] = (key %d, %d B), leader has (key %d, %d B)",
					nd.id, i+1, fe.key, len(fe.val), le.key, len(le.val))
			}
		}
		for k := uint64(0); k < keys; k++ {
			workload.EncodeKey(kb, k)
			lv, lok := lead.store.Get(kb)
			fv, fok := nd.store.Get(kb)
			if lok != fok || string(lv) != string(fv) {
				t.Fatalf("node %d store diverged on key %d (%d B vs leader's %d B)", nd.id, k, len(fv), len(lv))
			}
		}
	}
}

// TestBackfillStopsAtEpochChange: a leader answered with a gap backfills
// the peer one blocking prepare per missing entry, and each call yields.
// Here the leader adopts epoch 2 while the first backfill call is in
// flight, which truncates its log to the applied prefix (empty), and the
// new epoch then writes refill entries of its own. The backfill must stop
// there: with one refill entry the next entry it would read lies past the
// log's end, and with six it is the new epoch's, which must not travel
// under epoch 1. The peer is handed exactly the one prepare that was in
// flight.
func TestBackfillStopsAtEpochChange(t *testing.T) {
	for _, refill := range []int{1, 6} {
		t.Run(fmt.Sprintf("refill-%d", refill), func(t *testing.T) {
			r := newRig(t, 2, Config{})
			lead, fol := r.svc.nodes[0], r.svc.nodes[1]
			type prepare struct {
				epoch uint32
				index int
				key   uint64
			}
			var handed []prepare
			fol.srv.Start(1, func(int) core.Handler {
				return func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
					if pm, ok := decodePrepare(req); ok && req[0] == opPrepare {
						handed = append(handed, prepare{pm.epoch, int(pm.index), pm.key})
					}
					return fol.handle(p, c, req, resp)
				}
			})
			// Epoch 1: the leader holds entries 1..6 (key i at index i),
			// none applied; the peer holds 1..2.
			buf := make([]byte, prepareHdr+64)
			resp := make([]byte, 16)
			for i := 1; i <= 6; i++ {
				lead.log.append(entryRec{epoch: 1, key: uint64(i), val: []byte("e1")})
				lead.pending[uint64(i)]++
			}

			inBackfill, changed, done := false, false, false
			var panicked any
			r.cl.Server.Spawn("backfill", func(p *sim.Proc) {
				defer func() { panicked = recover() }()
				for i := 1; i <= 2; i++ {
					fol.handlePrepare(p, encodePrepare(buf, 1, uint32(i), 0, 0, uint64(i), []byte("e1")), resp)
				}
				gap := make([]byte, 5)
				respU32(gap, statusGap, 2)
				inBackfill = true
				lead.prepareAck(p, 1, int64(p.Now()), gap, 6, 1)
				inBackfill, done = false, true
			})
			r.cl.Server.Spawn("new-epoch", func(p *sim.Proc) {
				for len(handed) == 0 {
					p.Sleep(100)
				}
				if !inBackfill {
					t.Errorf("the peer was handed a prepare outside the backfill")
					return
				}
				// The peer is running prepare 3; its answer has not come back.
				nbuf := make([]byte, prepareHdr+64)
				nresp := make([]byte, 16)
				for i := 1; i <= refill; i++ {
					lead.handlePrepare(p, encodePrepare(nbuf, 2, uint32(i), 0, 1, uint64(100+i), []byte("e2")), nresp)
					if nresp[0] != kv.StatusOK {
						t.Errorf("epoch-2 prepare %d: status 0x%02x", i, nresp[0])
					}
				}
				changed = true
			})
			r.env.Run(sim.Time(sim.Millisecond))
			if panicked != nil {
				t.Fatalf("backfill panicked: %v", panicked)
			}
			if !changed || !done {
				t.Fatalf("epoch change ran %v, backfill returned %v", changed, done)
			}
			if lead.epoch != 2 || lead.role == roleLeader || lead.log.len() != refill {
				t.Fatalf("leader after the change: epoch %d, role %v, log %d; want epoch 2, follower, log %d",
					lead.epoch, lead.role, lead.log.len(), refill)
			}
			if want := []prepare{{1, 3, 3}}; !slices.Equal(handed, want) {
				t.Fatalf("peer was handed prepares %+v, want only the one in flight %+v", handed, want)
			}
		})
	}
}
