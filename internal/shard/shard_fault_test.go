package shard

import (
	"testing"

	"rfp/internal/sim"
)

// TestShardPostPollServerCrashAndRejoin: a server machine crashes under
// ops posted across every server. Its ops fail within the connections'
// deadline — and only its ops; every other server's complete intact. After
// the machine restarts, the same round succeeds end to end: the dead
// server's connections re-establish into the same fan-out group under fresh
// WR-ID tags (Group.retag), so their completions reach them again.
func TestShardPostPollServerCrashAndRejoin(t *testing.T) {
	const deadline = 60_000
	params := pipelined()
	params.DeadlineNs = deadline
	params.DisableSwitch = true
	r := newRig(t, 3, params)
	sc, err := New(r.cl.Clients[0], r.servers, true)
	if err != nil {
		t.Fatal(err)
	}
	r.start()
	const dead = 1
	deadMachine := r.servers[dead].Machine()
	ok, reached := false, ""
	r.cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		ops := opsSpanningServers(sc, 2)
		round := func(phase string, crashed bool) bool {
			reached = phase
			failed := 0
			for i, o := range pollAll(t, p, sc, ops, postAll(p, sc, ops)) {
				onDead := sc.ServerFor(ops[i].Key) == dead
				switch {
				case o.err == nil && onDead && crashed:
					t.Errorf("%s: key %d on the crashed server succeeded", phase, ops[i].Key)
				case o.err != nil && (!onDead || !crashed):
					t.Errorf("%s: key %d on server %d: %v", phase, ops[i].Key, sc.ServerFor(ops[i].Key), o.err)
				case o.err != nil && o.took > deadline:
					t.Errorf("%s: key %d failed %v after its post, past the %d ns deadline", phase, ops[i].Key, o.took, deadline)
				case o.err != nil:
					failed++
				}
			}
			if crashed && failed != 4 {
				t.Errorf("%s: %d ops failed, want the crashed server's 4", phase, failed)
			}
			return !t.Failed()
		}
		if !round("healthy", false) {
			return
		}
		deadMachine.Fail()
		if !round("crashed", true) {
			return
		}
		deadMachine.Restart()
		// Reconnects happen at the next post on the dead server's
		// connections; the round after the restart must be whole again.
		if !round("rejoined", false) {
			return
		}
		if sc.Server(dead).Stats().Reconnects == 0 {
			t.Error("rejoin without a single reconnect")
			return
		}
		ok = true
	})
	r.env.Run(sim.Time(50 * sim.Millisecond))
	if !ok {
		t.Fatalf("did not complete (last phase started: %s)", reached)
	}
}
