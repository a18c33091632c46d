package faults

// Schedule tests: stage advancement tracks the decision clock, per-stage
// tallies partition the totals, crash windows shift relative to their
// stage's start, the whole schedule replays byte-identically per seed, and
// Install folds per-machine digests deterministically and rejects
// connection-killing plans on a sharded environment.

import (
	"testing"

	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
)

func TestScheduleStageAdvance(t *testing.T) {
	// Stage 0: drop-heavy. Stage 1 (from t=10_000): delay-heavy, no drops.
	si := New(5, []Stage{
		{Start: 0, Plan: Plan{DropProb: 0.5}},
		{Start: 10_000, Plan: Plan{DelayProb: 0.5}},
	})
	ops := opSequence(4000, 3)
	for i, op := range ops[:2000] {
		si.Decide(sim.Time(int64(i)*4), op) // 0..8000: stage 0
	}
	for i, op := range ops[2000:] {
		si.Decide(sim.Time(10_000+int64(i)*4), op) // stage 1
	}
	s0, s1 := si.StageCounts(0), si.StageCounts(1)
	if s0.Drops == 0 || s0.Delays != 0 {
		t.Fatalf("stage 0 counts = %+v, want drops only", s0)
	}
	if s1.Delays == 0 || s1.Drops != 0 {
		t.Fatalf("stage 1 counts = %+v, want delays only", s1)
	}
	total := si.Counts()
	if s0.Add(s1) != total {
		t.Fatalf("per-stage tallies %+v + %+v do not partition the total %+v", s0, s1, total)
	}
}

func TestScheduleReplaysIdentically(t *testing.T) {
	stages := []Stage{
		{Start: 0, Plan: Plan{DropProb: 0.1, CorruptProb: 0.05}},
		{Start: 5_000, Plan: Plan{DelayProb: 0.2}},
	}
	a := New(42, stages)
	b := New(42, stages)
	for i, op := range opSequence(5000, 9) {
		now := sim.Time(int64(i) * 3)
		if a.Decide(now, op) != b.Decide(now, op) {
			t.Fatalf("op %d: scheduled decisions diverge", i)
		}
	}
	if a.Digest() != b.Digest() || a.TraceString() != b.TraceString() {
		t.Fatal("same-seed schedules produced different traces")
	}
	c := New(43, stages)
	for i, op := range opSequence(5000, 9) {
		c.Decide(sim.Time(int64(i)*3), op)
	}
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds produced identical schedule traces")
	}
}

func TestScheduleRejectsOutOfOrderStages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted out-of-order stages")
		}
	}()
	New(1, []Stage{{Start: 5000}, {Start: 100}})
}

// Crash windows are declared relative to the stage start; Install must
// shift them to absolute times.
func TestInstallScheduleShiftsCrashWindows(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := fabric.NewMachine(env, "server", hw.ConnectX3())
	si := Install(2, []Stage{
		{Start: 0, Plan: Plan{}},
		// Window [1000,2000) relative to the stage start at 10_000:
		// absolute [11_000,12_000).
		{Start: 10_000, Plan: Plan{Crashes: []Window{{Machine: "server", Start: 1000, End: 2000}}}},
	}, m)
	var beforeDown, duringDown, afterDown bool
	env.At(10_500, func() { beforeDown = m.Down() })
	env.At(11_500, func() { duringDown = m.Down() })
	env.At(12_500, func() { afterDown = m.Down() })
	env.Run(20_000)
	if beforeDown || !duringDown || afterDown {
		t.Fatalf("down before/during/after = %v/%v/%v, want false/true/false",
			beforeDown, duringDown, afterDown)
	}
	if c := si.StageCounts(1); c.Crashes != 1 || c.Restarts != 1 {
		t.Fatalf("stage 1 counts = %+v, want 1 crash / 1 restart", c)
	}
	if c := si.StageCounts(0); c != (Counts{}) {
		t.Fatalf("stage 0 charged crash events: %+v", c)
	}
	if si.Events() != 2 {
		t.Fatalf("trace has %d events, want 2:\n%s", si.Events(), si.TraceString())
	}
}

func TestInstallScheduleUnknownMachine(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := fabric.NewMachine(env, "server", hw.ConnectX3())
	defer func() {
		if recover() == nil {
			t.Fatal("Install accepted a crash on an unknown machine")
		}
	}()
	Install(2, one(Plan{Crashes: []Window{{Machine: "ghost", Start: 0, End: 10}}}), m)
}

// TestInstallDigestFold: Install splits the schedule into per-machine
// streams and folds their traces, tallies and digests in sorted-name
// order — on either kernel.
func TestInstallDigestFold(t *testing.T) {
	stages := []Stage{
		{Start: 0, Plan: Plan{DropProb: 0.2}},
		{Start: 5_000, Plan: Plan{DelayProb: 0.2}},
	}
	ops := opSequence(3000, 11)
	run := func(sharded bool) *Installed {
		env := sim.NewEnv(1)
		defer env.Close()
		if sharded {
			env.SetSharded(2)
		}
		// Passed out of name order: the fold must sort.
		b := fabric.NewMachine(env, "beta", hw.ConnectX3())
		a := fabric.NewMachine(env, "alpha", hw.ConnectX3())
		inst := Install(7, stages, b, a)
		for i, op := range ops {
			now := sim.Time(int64(i) * 4)
			inst.per["alpha"].Decide(now, op)
			inst.per["beta"].Decide(now, op)
		}
		return inst
	}
	i1, i2, ish := run(false), run(false), run(true)
	if i1.Digest() != i2.Digest() || i1.TraceString() != i2.TraceString() {
		t.Fatal("same-seed installs produced different folded traces")
	}
	if i1.Digest() != ish.Digest() {
		t.Fatal("serial and sharded installs split the streams differently")
	}
	alpha, beta := i1.per["alpha"], i1.per["beta"]
	if alpha.Digest() == beta.Digest() {
		t.Fatal("per-machine streams are not split (identical digests)")
	}
	if want := "[alpha]\n" + alpha.TraceString() + "\n[beta]\n" + beta.TraceString() + "\n"; i1.TraceString() != want {
		t.Fatal("TraceString is not the per-machine traces in sorted-name order")
	}
	if i1.Events() != alpha.Events()+beta.Events() {
		t.Fatal("Events does not sum the per-machine traces")
	}
	want := alpha.Counts().Add(beta.Counts())
	if i1.Counts() != want {
		t.Fatalf("Counts = %+v, want per-machine sum %+v", i1.Counts(), want)
	}
	if got := i1.StageCounts(0).Add(i1.StageCounts(1)); got != want {
		t.Fatalf("stage counts %+v do not partition the total %+v", got, want)
	}
}

// TestInstallRejectsConnectionKillersOnShardedEnv: a schedule that can
// kill a connection must not be installed on the sharded kernel.
func TestInstallRejectsConnectionKillersOnShardedEnv(t *testing.T) {
	for _, pl := range []Plan{
		{Crashes: []Window{{Machine: "server", Start: 0, End: 10}}},
		{Invalidations: []Invalidation{{Machine: "server", At: 5}}},
		{QPErrorProb: 0.01},
	} {
		func() {
			env := sim.NewEnv(1)
			defer env.Close()
			env.SetSharded(2)
			m := fabric.NewMachine(env, "server", hw.ConnectX3())
			defer func() {
				if recover() == nil {
					t.Fatalf("sharded install accepted %+v", pl)
				}
			}()
			Install(1, one(pl), m)
		}()
	}
}

// TestInstallInvalidation: a scheduled invalidation deregisters the chosen
// region (index wrapped into range) and is charged to its stage; with no
// region registered it is a no-op.
func TestInstallInvalidation(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := fabric.NewMachine(env, "server", hw.ConnectX3())
	bare := fabric.NewMachine(env, "bare", hw.ConnectX3())
	mr0 := m.NIC().RegisterMemory(64)
	mr1 := m.NIC().RegisterMemory(64)
	inst := Install(3, one(Plan{Invalidations: []Invalidation{
		{Machine: "server", At: 1000, Region: 3}, // 3 % 2 regions = region 1
		{Machine: "bare", At: 1000},
	}}), m, bare)
	env.Run(2000)
	if !mr0.Handle().Valid() || mr1.Handle().Valid() {
		t.Fatalf("valid region0/region1 = %v/%v, want true/false", mr0.Handle().Valid(), mr1.Handle().Valid())
	}
	if c := inst.StageCounts(0); c.Invalidations != 1 {
		t.Fatalf("counts = %+v, want exactly 1 invalidation", c)
	}
	if got, want := inst.per["server"].TraceString(), "t=1000 invalidate server region 3"; got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}
