package replica

import (
	"fmt"
	"testing"

	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestEntryLogChunks walks the log's chunk layout: positions run through
// each chunk in turn, chunks double from logChunkMin to logChunkMax, cut
// zeroes what it drops, and appending after a cut into an earlier chunk
// reuses the chunks already there. A position at or past len panics, as a
// slice index would, though its chunk is allocated.
func TestEntryLogChunks(t *testing.T) {
	c, off, size := 0, 0, logChunkMin
	for i := 0; i < logChunkDoubled+3*logChunkMax; i++ {
		if gc, goff := locate(i); gc != c || goff != off {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", i, gc, goff, c, off)
		}
		if off++; off == size {
			c, off, size = c+1, 0, min(2*size, logChunkMax)
		}
	}

	const n = 10_000
	var l entryLog
	val := []byte("v")
	for i := 0; i < n; i++ {
		l.append(entryRec{epoch: 1, key: uint64(i), val: val})
	}
	if l.len() != n {
		t.Fatalf("len = %d, want %d", l.len(), n)
	}
	for i := 0; i < n; i++ {
		if e := l.at(i); e.key != uint64(i) || e.epoch != 1 {
			t.Fatalf("at(%d) = %+v", i, *e)
		}
	}
	for i, ch := range l.chunks {
		want := logChunkMax
		if i < logChunkSteps {
			want = logChunkMin << i
		}
		if len(ch) != want {
			t.Fatalf("chunk %d holds %d entries, want %d", i, len(ch), want)
		}
	}

	chunks := len(l.chunks)
	const keep = 100 // inside the third chunk
	l.cut(keep)
	if l.len() != keep {
		t.Fatalf("len after cut = %d, want %d", l.len(), keep)
	}
	for _, i := range []int{-1, keep, keep + 1, n - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("at(%d) on a log of %d entries did not panic", i, keep)
				}
			}()
			l.at(i)
		}()
	}
	for i := keep; i < n; i++ {
		c, off := locate(i)
		if e := l.chunks[c][off]; e.key != 0 || e.val != nil {
			t.Fatalf("position %d still holds %+v after the cut", i, e)
		}
	}
	for i := keep; i < n; i++ {
		l.append(entryRec{epoch: 2, key: uint64(n + i), val: val})
	}
	if len(l.chunks) != chunks {
		t.Fatalf("re-appending after a cut grew the log from %d to %d chunks", chunks, len(l.chunks))
	}
	for i := 0; i < n; i++ {
		want := uint64(i)
		if i >= keep {
			want = uint64(n + i)
		}
		if e := l.at(i); e.key != want {
			t.Fatalf("at(%d).key = %d after the re-append, want %d", i, e.key, want)
		}
	}
}

// TestPrepareAcrossChunks drives a follower's prepare handler over a log
// of several chunks: a same-epoch prepare overwrites a pending entry in an
// earlier chunk (the idx <= len arm), a higher epoch truncates the tail to
// a point inside the first chunk, and the new epoch's entries refill the
// same chunks.
func TestPrepareAcrossChunks(t *testing.T) {
	r := newRig(t, 2, Config{})
	n := r.svc.nodes[1]
	const entries, commit = 200, 10 // entries span the first four chunks
	buf := make([]byte, prepareHdr+64)
	resp := make([]byte, 16)
	prepare := func(p *sim.Proc, epoch uint32, idx int, key uint64) error {
		msg := encodePrepare(buf, epoch, uint32(idx), commit, 0, key, []byte(fmt.Sprintf("e%d-%d", epoch, idx)))
		if n.handlePrepare(p, msg, resp); resp[0] != kv.StatusOK {
			return fmt.Errorf("prepare (epoch %d, idx %d): status 0x%02x", epoch, idx, resp[0])
		}
		return nil
	}
	drive := func(p *sim.Proc) error {
		for i := 1; i <= entries; i++ {
			if err := prepare(p, 1, i, uint64(i)); err != nil {
				return err
			}
		}
		if n.log.len() != entries || n.applied != commit || len(n.pending) != entries-commit {
			return fmt.Errorf("setup: log %d applied %d pending %d", n.log.len(), n.applied, len(n.pending))
		}
		chunks := len(n.log.chunks)

		// Overwrite entry 30, in the second chunk, with another key.
		dups := n.dupPrepares
		if err := prepare(p, 1, 30, 999); err != nil {
			return err
		}
		if e := n.log.at(29); n.log.len() != entries || e.key != 999 {
			return fmt.Errorf("overwrite: log %d, entry 30 has key %d", n.log.len(), e.key)
		}
		if n.pending[30] != 0 || n.pending[999] != 1 || n.dupPrepares != dups+1 {
			return fmt.Errorf("overwrite: pending[30]=%d pending[999]=%d dups +%d", n.pending[30], n.pending[999], n.dupPrepares-dups)
		}

		// Epoch 2 truncates to the applied prefix, inside the first chunk,
		// and appends its entry 11 there.
		if err := prepare(p, 2, commit+1, 5000+commit+1); err != nil {
			return err
		}
		if n.log.len() != commit+1 || n.truncations != 1 || len(n.pending) != 1 {
			return fmt.Errorf("truncate: log %d truncations %d pending %v", n.log.len(), n.truncations, n.pending)
		}
		for i := commit + 1; i < entries; i++ {
			if c, off := locate(i); n.log.chunks[c][off].val != nil {
				return fmt.Errorf("truncated position %d still holds its value", i)
			}
		}
		for i := commit + 2; i <= entries; i++ {
			if err := prepare(p, 2, i, uint64(5000+i)); err != nil {
				return err
			}
		}
		if len(n.log.chunks) != chunks {
			return fmt.Errorf("refilling after the truncation grew the log from %d to %d chunks", chunks, len(n.log.chunks))
		}
		for i := 1; i <= entries; i++ {
			key, val := uint64(i), fmt.Sprintf("e1-%d", i)
			if i > commit {
				key, val = uint64(5000+i), fmt.Sprintf("e2-%d", i)
			}
			if e := n.log.at(i - 1); e.key != key || string(e.val) != val {
				return fmt.Errorf("entry %d = (key %d, %q), want (key %d, %q)", i, e.key, e.val, key, val)
			}
		}
		return nil
	}
	var err error
	ran := false
	r.cl.Clients[0].Spawn("driver", func(p *sim.Proc) {
		err, ran = drive(p), true
	})
	r.env.Run(sim.Time(1 * sim.Millisecond))
	if !ran {
		t.Fatal("driver never ran")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRejoinStreamsAcrossChunks crashes a follower early and restarts it
// once the leader's log has grown across several chunk boundaries: the
// rejoin streams a range that starts in one chunk and ends in a later one,
// and the follower's log ends equal to the leader's, entry for entry.
func TestRejoinStreamsAcrossChunks(t *testing.T) {
	r := newRig(t, 3, Config{})
	cli := r.svc.NewClient(r.cl.Clients[0], cliParams(), false)
	r.svc.Start()

	lead, rej := r.svc.nodes[0], r.svc.nodes[1]
	follower := r.peers[0] // node 1
	from := -1             // the follower's log end when it restarts
	r.env.At(sim.Time(100*sim.Microsecond), follower.Fail)
	r.env.At(sim.Time(3*sim.Millisecond), func() {
		from = rej.log.len()
		follower.Restart()
	})

	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		val := make([]byte, 32)
		for i := 0; i < 300; i++ {
			key := uint64(i % 16)
			workload.FillVersioned(val, key, uint32(i+1))
			_ = cli.Put(p, key, val)
			p.Sleep(20 * sim.Microsecond)
		}
	})
	r.env.Run(sim.Time(30 * sim.Millisecond))

	if st := r.svc.Stats(); st.Promotions != 0 {
		t.Fatalf("a follower crash must not change leaders: %+v", st)
	}
	end := lead.log.len()
	c0, _ := locate(max(from, 0))
	c1, _ := locate(end - 1)
	if from < 0 || c0 == c1 {
		t.Fatalf("the follower restarted at log end %d of %d: the rejoin range spans no chunk boundary", from, end)
	}
	if rej.log.len() != end || rej.applied != lead.applied {
		t.Fatalf("rejoined follower: log %d applied %d, leader log %d applied %d",
			rej.log.len(), rej.applied, end, lead.applied)
	}
	for i := 0; i < end; i++ {
		if le, fe := lead.log.at(i), rej.log.at(i); le.key != fe.key || string(le.val) != string(fe.val) {
			t.Fatalf("entry %d: follower has (key %d, %d B), leader (key %d, %d B)",
				i+1, fe.key, len(fe.val), le.key, len(le.val))
		}
	}
}
