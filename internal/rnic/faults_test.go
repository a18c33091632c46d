package rnic

// Every fault branch of the flight state machine, driven by a scripted
// injector through both front doors — the blocking verbs and Post + CQ.Wait.
// The two doors are one path, so for each case they must agree on the
// error, the bytes on both sides and the completion instant.

import (
	"bytes"
	"errors"
	"testing"

	"rfp/internal/hw"
	"rfp/internal/sim"
)

// scriptInjector returns one fixed action for every op and damages by
// inverting every byte of the image.
type scriptInjector struct {
	act     FaultAction
	decides int
	damaged []FaultOp
}

func (s *scriptInjector) Decide(now sim.Time, op FaultOp) FaultAction {
	s.decides++
	return s.act
}

func (s *scriptInjector) Damage(op FaultOp, buf []byte) {
	s.damaged = append(s.damaged, op)
	for i := range buf {
		buf[i] ^= 0xff
	}
}

func inverted(b string) string {
	out := []byte(b)
	for i := range out {
		out[i] ^= 0xff
	}
	return string(out)
}

// faultOutcome is everything observable about one faulted operation.
type faultOutcome struct {
	err      error
	local    []byte // the caller's buffer afterwards
	remote   []byte // the targeted remote bytes afterwards
	done     sim.Time
	errored  bool  // QP in the error state afterwards
	nextErr  error // outcome of posting a second op on the same QP
	decides  int
	damaged  []FaultOp
	inOps    uint64 // responder-side ops served
	outBytes uint64
}

const (
	faultLocal  = "initiator-bytes!"
	faultRemote = "responder-bytes."
)

// runFaultCase executes one op under act through the chosen door. midFlight,
// if set, runs at t=800ns: after the op was validated and issued (post
// ≤150ns, out-bound engine done by ~700ns) and before the request reaches
// the responder (≥150+474+300ns).
func runFaultCase(t *testing.T, op WROp, act FaultAction, blocking bool, midFlight func(b *NIC, mr *MR)) faultOutcome {
	t.Helper()
	env := sim.NewEnv(1)
	defer env.Close()
	prof := hw.ConnectX3()
	prof.PostJitterNs = 0 // exact instants
	a, b := New(env, "a", prof), New(env, "b", prof)
	qa, _ := Connect(a, b)
	mr := b.RegisterMemory(64)
	copy(mr.Buf[8:], faultRemote)
	inj := &scriptInjector{act: act}
	a.SetInjector(inj)
	if midFlight != nil {
		env.At(800, func() { midFlight(b, mr) })
	}
	local := []byte(faultLocal)
	var out faultOutcome
	env.Go("initiator", func(p *sim.Proc) {
		issue := func() error {
			if blocking {
				if op == WRRead {
					return qa.Read(p, mr.Handle(), 8, local)
				}
				return qa.Write(p, mr.Handle(), 8, local)
			}
			cq := NewCQ(a)
			qa.Post(p, cq, WR{ID: 7, Op: op, Remote: mr.Handle(), Roff: 8, Local: local})
			e := cq.Wait(p)
			if e.ID != 7 || e.Op != op {
				t.Errorf("CQE = %+v, want ID 7 op %v", e, op)
			}
			return e.Err
		}
		out.err = issue()
		out.done = p.Now()
		out.errored = qa.errored
		out.local = append([]byte(nil), local...)
		out.remote = append([]byte(nil), mr.Buf[8:8+len(faultRemote)]...)
		out.inOps, out.outBytes = b.Stats.InOps, a.Stats.OutBytes
		// A second, unfaulted op shows what state the first left the QP in.
		inj.act = FaultAction{}
		out.nextErr = issue()
	})
	env.RunAll()
	out.decides, out.damaged = inj.decides, inj.damaged
	return out
}

func TestFaultBranchesThroughBothDoors(t *testing.T) {
	errScripted := errors.New("scripted failure")
	const extraNs, dropNs = 5_000, 20_000
	type expect struct {
		err           error
		local, remote string // bytes on each side afterwards; "" = untouched
		errored       bool
		nextErr       error
		damages       int
		after         int64 // completion no earlier than this
		plusBase      int64 // ≥0: completion == fault-free completion + plusBase
	}
	cases := []struct {
		name      string
		op        WROp
		act       FaultAction
		midFlight func(b *NIC, mr *MR)
		want      expect
	}{
		{name: "err", op: WRWrite, act: FaultAction{Err: errScripted},
			want: expect{err: errScripted, plusBase: -1}},
		{name: "qp-error", op: WRRead, act: FaultAction{Err: ErrQPState, QPError: true},
			want: expect{err: ErrQPState, errored: true, nextErr: ErrQPState, plusBase: -1}},
		{name: "read-drop", op: WRRead, act: FaultAction{DropNs: dropNs},
			want: expect{err: ErrTimeout, after: dropNs, plusBase: -1}},
		{name: "write-drop-bytes-landed", op: WRWrite, act: FaultAction{DropNs: dropNs},
			want: expect{err: ErrTimeout, remote: faultLocal, plusBase: dropNs}},
		{name: "extra-latency", op: WRRead, act: FaultAction{ExtraNs: extraNs},
			want: expect{local: faultRemote, plusBase: extraNs}},
		{name: "corrupt-read", op: WRRead, act: FaultAction{Corrupt: true},
			want: expect{local: inverted(faultRemote), damages: 1, plusBase: 0}},
		{name: "corrupt-write-caller-untouched", op: WRWrite, act: FaultAction{Corrupt: true},
			want: expect{remote: inverted(faultLocal), damages: 1, plusBase: 0}},
		{name: "responder-down-mid-flight", op: WRWrite,
			midFlight: func(b *NIC, mr *MR) { b.SetDown(true) },
			want:      expect{err: ErrNICDown, after: faultTimeoutNs, nextErr: ErrNICDown, plusBase: -1}},
		{name: "region-deregistered-mid-flight", op: WRRead,
			midFlight: func(b *NIC, mr *MR) { mr.Deregister() },
			want:      expect{err: ErrDeregister, after: faultTimeoutNs, nextErr: ErrDeregister, plusBase: -1}},
		{name: "corrupt-read-lost-to-dead-responder", op: WRRead, act: FaultAction{Corrupt: true},
			midFlight: func(b *NIC, mr *MR) { b.SetDown(true) },
			want:      expect{err: ErrNICDown, after: faultTimeoutNs, nextErr: ErrNICDown, plusBase: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sync := runFaultCase(t, tc.op, tc.act, true, tc.midFlight)
			post := runFaultCase(t, tc.op, tc.act, false, tc.midFlight)
			if sync.err != post.err || sync.done != post.done || sync.errored != post.errored ||
				sync.nextErr != post.nextErr || sync.decides != post.decides || len(sync.damaged) != len(post.damaged) ||
				sync.inOps != post.inOps || sync.outBytes != post.outBytes ||
				!bytes.Equal(sync.local, post.local) || !bytes.Equal(sync.remote, post.remote) {
				t.Fatalf("doors disagree:\nblocking %+v\npost+cq  %+v", sync, post)
			}
			got, w := sync, tc.want
			if got.err != w.err {
				t.Errorf("err = %v, want %v", got.err, w.err)
			}
			if w.local == "" {
				w.local = faultLocal
			}
			if w.remote == "" {
				w.remote = faultRemote
			}
			if string(got.local) != w.local {
				t.Errorf("caller buffer = %q, want %q", got.local, w.local)
			}
			if string(got.remote) != w.remote {
				t.Errorf("remote bytes = %q, want %q", got.remote, w.remote)
			}
			if got.errored != w.errored {
				t.Errorf("QP errored = %v, want %v", got.errored, w.errored)
			}
			if got.nextErr != w.nextErr {
				t.Errorf("next op err = %v, want %v", got.nextErr, w.nextErr)
			}
			if len(got.damaged) != w.damages {
				t.Errorf("Damage called %d times, want %d", len(got.damaged), w.damages)
			}
			for _, op := range got.damaged {
				if want := (FaultOp{Op: tc.op, Bytes: len(faultLocal), Initiator: "a", Target: "b"}); op != want {
					t.Errorf("Damage op = %+v, want %+v", op, want)
				}
			}
			if int64(got.done) < w.after {
				t.Errorf("completed at %v, before the %dns fault window elapsed", got.done, w.after)
			}
			if w.plusBase >= 0 {
				base := runFaultCase(t, tc.op, FaultAction{}, true, nil)
				if base.err != nil {
					t.Fatalf("fault-free baseline failed: %v", base.err)
				}
				if want := base.done.Add(sim.Duration(w.plusBase)); got.done != want {
					t.Errorf("completed at %v, want fault-free %v + %dns", got.done, base.done, w.plusBase)
				}
			}
		})
	}
}

// A faulted op that never issued costs only the post and the reap: the
// engine completes it in the instant it would have started issuing.
func TestInjectedErrorCostsPostPlusPoll(t *testing.T) {
	out := runFaultCase(t, WRWrite, FaultAction{Err: ErrTimeout}, true, nil)
	prof := hw.ConnectX3()
	if want := sim.Time(prof.PostNs + prof.PollNs); out.done != want {
		t.Fatalf("completed at %v, want %v", out.done, want)
	}
	if out.inOps != 0 || out.outBytes != 0 {
		t.Fatalf("responder ops = %d, bytes out = %d; the failed op moved bytes", out.inOps, out.outBytes)
	}
}
