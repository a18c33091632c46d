package faults

import (
	"math/rand"
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/rnic"
	"rfp/internal/sim"
)

// opSequence builds a deterministic pseudo-workload of fault decisions.
func opSequence(n int, seed int64) []rnic.FaultOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]rnic.FaultOp, n)
	for i := range ops {
		op := rnic.WRWrite
		if rng.Intn(2) == 1 {
			op = rnic.WRRead
		}
		ops[i] = rnic.FaultOp{Op: op, Bytes: 1 + rng.Intn(512),
			Initiator: "client0/nic0", Target: "server/nic0"}
	}
	return ops
}

// one wraps a single plan as the one-stage schedule.
func one(pl Plan) []Stage { return []Stage{{Plan: pl}} }

// TestDecideReplaysIdentically: two injectors built from the same plan must
// make identical decisions and produce identical traces over the same op
// sequence — the seed/replay contract.
func TestDecideReplaysIdentically(t *testing.T) {
	plan := Plan{DropProb: 0.1, DelayProb: 0.1, CorruptProb: 0.05, QPErrorProb: 0.01}
	a, b := New(99, one(plan)), New(99, one(plan))
	ops := opSequence(5000, 7)
	for i, op := range ops {
		now := sim.Time(int64(i) * 100)
		actA, actB := a.Decide(now, op), b.Decide(now, op)
		if actA != actB {
			t.Fatalf("op %d: decisions diverge: %+v vs %+v", i, actA, actB)
		}
	}
	if a.TraceString() != b.TraceString() {
		t.Fatalf("traces diverge")
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests diverge: %x vs %x", a.Digest(), b.Digest())
	}
	if a.Events() == 0 {
		t.Fatalf("no events injected over %d ops", len(ops))
	}
	if c := a.Counts(); c != b.Counts() || c.Drops == 0 || c.Delays == 0 || c.Corruptions == 0 {
		t.Fatalf("counts = %+v, want equal and nonzero drop/delay/corrupt", c)
	}
}

// TestDifferentSeedsDiverge: the seed must actually matter.
func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1, one(Plan{DropProb: 0.2}))
	b := New(2, one(Plan{DropProb: 0.2}))
	for i, op := range opSequence(2000, 7) {
		a.Decide(sim.Time(int64(i)), op)
		b.Decide(sim.Time(int64(i)), op)
	}
	if a.Digest() == b.Digest() {
		t.Fatalf("different seeds produced identical traces")
	}
}

// TestDamageNeverFabricatesValidity: whatever Damage does to a buffer, the
// status bit (buf[3] bit 7, written last by the wire protocol) ends up
// clear, and bytes 0–2 of the size word are untouched — so a damaged image
// can only ever parse as an invalid (incomplete) response.
func TestDamageNeverFabricatesValidity(t *testing.T) {
	in := New(4, nil)
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 2000; iter++ {
		buf := make([]byte, 5+rng.Intn(300))
		rng.Read(buf)
		buf[3] |= 0x80 // pretend the image carried a valid status bit
		var head [3]byte
		copy(head[:], buf[:3])
		in.Damage(rnic.FaultOp{Op: rnic.WRRead, Bytes: len(buf)}, buf)
		if buf[3]&0x80 != 0 {
			t.Fatalf("iter %d: Damage left the status bit set", iter)
		}
		if buf[0] != head[0] || buf[1] != head[1] || buf[2] != head[2] {
			t.Fatalf("iter %d: Damage touched size-word bytes 0-2", iter)
		}
	}
}

// TestReadsOnlyScopesFaults: with ReadsOnly set, writes are never faulted.
func TestReadsOnlyScopesFaults(t *testing.T) {
	in := New(6, one(Plan{DropProb: 1, DelayProb: 1, CorruptProb: 1, ReadsOnly: true}))
	for i := 0; i < 100; i++ {
		act := in.Decide(sim.Time(int64(i)), rnic.FaultOp{Op: rnic.WRWrite, Bytes: 64})
		if act != (rnic.FaultAction{}) {
			t.Fatalf("write op faulted under ReadsOnly: %+v", act)
		}
	}
	act := in.Decide(0, rnic.FaultOp{Op: rnic.WRRead, Bytes: 64})
	if act == (rnic.FaultAction{}) {
		t.Fatalf("read op not faulted under ReadsOnly with prob 1")
	}
}

// TestSmallOpsNeverCorrupted: ops of <=4 bytes (the mode flag) carry no
// payload past the status word and must never draw a corruption.
func TestSmallOpsNeverCorrupted(t *testing.T) {
	in := New(8, one(Plan{CorruptProb: 1}))
	for i := 0; i < 100; i++ {
		act := in.Decide(sim.Time(int64(i)), rnic.FaultOp{Op: rnic.WRWrite, Bytes: 1})
		if act.Corrupt {
			t.Fatalf("1-byte op drew a corruption")
		}
	}
}

// TestInstallCrashWindow: the scheduled crash takes the machine down at
// Start (invalidating its regions) and brings it back at End.
func TestInstallCrashWindow(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := fabric.NewMachine(env, "server", hw.ConnectX3())
	mr := m.NIC().RegisterMemory(64)
	mr.Buf[8] = 0xaa
	in := Install(2, one(Plan{Crashes: []Window{{Machine: "server", Start: 1000, End: 2000}}}), m)
	var duringDown, afterDown bool
	var duringByte byte
	env.At(1500, func() { duringDown, duringByte = m.Down(), mr.Buf[8] })
	env.At(2500, func() { afterDown = m.Down() })
	env.Run(5000)
	if !duringDown || afterDown {
		t.Fatalf("down during window = %v, after = %v; want true/false", duringDown, afterDown)
	}
	if duringByte != 0 {
		t.Fatalf("crash did not zero registered memory (byte = %#x)", duringByte)
	}
	c := in.Counts()
	if c.Crashes != 1 || c.Restarts != 1 {
		t.Fatalf("counts = %+v, want 1 crash / 1 restart", c)
	}
	if in.Events() != 2 {
		t.Fatalf("trace has %d events, want 2:\n%s", in.Events(), in.TraceString())
	}
}

// TestEnabledZeroPlan: the zero plan injects nothing, and each kind of
// fault on its own enables a plan.
func TestEnabledZeroPlan(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Fatalf("zero plan reports Enabled")
	}
	for _, pl := range []Plan{
		{DropProb: 0.1},
		{DelayProb: 0.1},
		{CorruptProb: 0.1},
		{QPErrorProb: 0.1},
		{Crashes: []Window{{}}},
		{Invalidations: []Invalidation{{}}},
	} {
		if !pl.Enabled() {
			t.Fatalf("plan %+v reports disabled", pl)
		}
	}
}
