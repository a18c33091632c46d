package rnic

// Fault-injection hooks (extension). The NIC model is lossless by default:
// every posted operation completes successfully after its modeled latency.
// Real fabrics are not — completions get lost, QPs transition to the error
// state, registrations vanish under a crashed peer. This file defines the
// seam where a deterministic injector (internal/faults) plugs into the data
// path without the rnic package knowing anything about fault plans.
//
// The contract is strictly zero-cost when no injector is attached: the data
// path performs only nil/bool field checks, draws no random numbers and adds
// no virtual time, so archived baseline runs stay byte-identical.

import (
	"errors"

	"rfp/internal/sim"
)

// Fault-path errors. ErrTimeout is the one transient error: the operation's
// completion was lost and the initiator gave up after a timeout; the request
// may or may not have executed remotely. All other fault errors indicate the
// connection or the remote registration is gone and a reconnect is required.
var (
	ErrTimeout = errors.New("rnic: operation timed out (completion lost)")
	ErrQPState = errors.New("rnic: queue pair in error state")
	ErrNICDown = errors.New("rnic: nic is down")
)

// faultTimeoutNs is the modeled detection latency charged when the data path
// itself discovers a dead responder mid-flight (transport retry window). The
// injector controls the timeout of *injected* drops via FaultAction.DropNs.
const faultTimeoutNs = 10_000

// FaultOp describes one one-sided operation about to issue, handed to the
// injector so plans can scope faults by op kind, size or endpoint.
type FaultOp struct {
	Op        WROp
	Bytes     int
	Initiator string // local NIC name
	Target    string // remote NIC name
}

// FaultAction is an injector's decision for one operation. The zero value
// means "no fault".
type FaultAction struct {
	Err     error // fail the operation with this error (no bytes move)
	QPError bool  // additionally transition the QP to the error state
	DropNs  int64 // >0: lose the completion; fail with ErrTimeout after DropNs
	ExtraNs int64 // extra in-flight latency before the remote phase
	Corrupt bool  // damage the delivered bytes (Damage is called on the image)
}

// FaultInjector decides per-op faults. Implemented by internal/faults; rnic
// only defines the seam. Decide is called once per one-sided operation at
// issue time; Damage is called on the delivered byte image of an operation
// whose action requested corruption.
type FaultInjector interface {
	Decide(now sim.Time, op FaultOp) FaultAction
	Damage(op FaultOp, buf []byte)
}

// SetInjector attaches a fault injector to every operation initiated by this
// NIC (nil detaches).
func (n *NIC) SetInjector(fi FaultInjector) { n.injector = fi }

// SetDown marks the NIC down (true) or back up (false). A down NIC fails
// operations it initiates and operations targeting it.
func (n *NIC) SetDown(d bool) { n.down = d }

// RegionCount returns how many regions have been registered on this NIC
// (including since-deregistered ones; registrations are never recycled).
func (n *NIC) RegionCount() int { return len(n.mrs) }

// Region returns the i-th registered region in registration order.
func (n *NIC) Region(i int) *MR { return n.mrs[i] }

// InvalidateRegions models the memory loss of a machine crash: every region
// ever registered on this NIC is deregistered and its backing buffer zeroed,
// so in-flight remote operations fail and post-restart readers see fresh
// memory rather than stale pre-crash bytes.
func (n *NIC) InvalidateRegions() {
	for _, mr := range n.mrs {
		mr.Deregister()
		for i := range mr.Buf {
			mr.Buf[i] = 0
		}
	}
}

// gate rejects posting on a dead endpoint: a QP in the error state stays
// errored until the connection is re-established, and a down NIC cannot
// issue at all. Field checks only — free on the healthy path.
func (q *QP) gate() error {
	if q.errored {
		return ErrQPState
	}
	if q.local.down {
		return ErrNICDown
	}
	return nil
}

// checkTarget validates a one-sided operation's remote target: bounds
// against the region and handle ownership against this QP's peer (RC QPs
// address a single remote endpoint).
func (q *QP) checkTarget(remote RemoteMR, roff, size int) error {
	if err := remote.check(roff, size); err != nil {
		return err
	}
	if remote.mr.nic != q.remote {
		return ErrBadKey
	}
	return nil
}

// decideAt consults the initiator-side injector for one operation issuing
// at now, applying any QP-state transition it requests.
//
//rfp:hotpath
func (q *QP) decideAt(now sim.Time, op WROp, size int) FaultAction {
	inj := q.local.injector
	if inj == nil {
		return FaultAction{}
	}
	act := inj.Decide(now, FaultOp{Op: op, Bytes: size,
		Initiator: q.local.name, Target: q.remote.name})
	if act.QPError {
		q.errored = true
	}
	return act
}
