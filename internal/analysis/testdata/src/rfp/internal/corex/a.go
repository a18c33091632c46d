// Package corex is golden testdata for the quiesce analyzer: ring geometry
// fields reached through the receiver or a pointer parameter may only be
// mutated from quiesce-guarded paths — the mutating function checks
// outstanding, carries //rfp:quiesced, or is called only from safe
// functions. The package path rides the rfp/internal/core prefix the
// analyzer is scoped to.
package corex

type mr struct{ buf []byte }

type slotState struct{ seq uint16 }

type ring struct {
	depth       int
	maxDepth    int
	tag         uint64
	landing     []byte
	region      *mr
	outstanding int
	scratch     []byte
	slots       []slotState
}

// badRetag mutates geometry with no guard anywhere in sight.
func (r *ring) badRetag(t uint64) {
	r.tag = t // want `mutation of ring geometry field "tag" outside a quiesce-guarded path`
}

// guardedRebind tests outstanding in its own body: safe.
func (r *ring) guardedRebind(t uint64, n int) {
	if r.outstanding != 0 {
		return
	}
	r.tag = t
	r.landing = make([]byte, n)
}

// applyLease never checks outstanding, but its only caller does: the
// caller-safety fixpoint covers it.
func (r *ring) applyLease(t uint64, n int) {
	r.tag = t
	r.landing = make([]byte, n)
}

func (r *ring) rebindAtQuiesce(t uint64, n int) {
	if r.outstanding == 0 {
		r.applyLease(t, n)
	}
}

// leakyApply has one guarded caller and one unguarded one: not safe.
func (r *ring) leakyApply(d int) {
	r.maxDepth = d // want `mutation of ring geometry field "maxDepth" outside a quiesce-guarded path`
}

func (r *ring) guardedCaller(d int) {
	if r.outstanding == 0 {
		r.leakyApply(d)
	}
}

func (r *ring) unguardedCaller(d int) {
	r.leakyApply(d)
}

// swapRegion asserts the rule holds at every caller, auditable in review.
//
//rfp:quiesced recovery swaps buffers only after the resend path has drained or abandoned every slot
func (r *ring) swapRegion(m *mr) {
	r.region = m
}

// Poll is a data-path root: the diagnostic points out the reachability.
func (r *ring) Poll() {
	r.tag++ // want `mutation of ring geometry field "tag" outside a quiesce-guarded path \(reachable from the Serve/Poll data path\)`
}

// setDepth changes how many slots the next posts may take, a per-call
// bound rather than geometry: no guard needed.
func (r *ring) setDepth(d int) {
	r.depth = d
}

// newRing builds a fresh ring through a local before publishing it; locals
// are private, so constructors need no guard.
func newRing(t uint64, n int) *ring {
	r := &ring{}
	r.tag = t
	r.landing = make([]byte, n)
	return r
}

// byValue receives a private copy: no shared state is reachable.
func byValue(r ring, t uint64) {
	r.tag = t
}

// reArm writes one element of the slots array — slot state on the data
// path, not a geometry change.
func (r *ring) reArm(i int) {
	r.slots[i] = slotState{seq: 1}
}

// nonGeometry fields are no concern of this analyzer.
func (r *ring) stash(b []byte) {
	r.scratch = b
}

// suppressed documents a deliberate unguarded mutation.
func (r *ring) suppressed(t uint64) {
	r.tag = t //rfpvet:allow quiesce single-threaded harness, no requests can be in flight
}
