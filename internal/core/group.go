package core

// Fan-out groups: one client thread keeping several connections' rings full
// at once. Post and Poll are per-connection, but every member of a Group
// shares one completion queue, so a Poll on any member reaps and dispatches
// completions for all of them and re-issues fetch reads for every member
// with slots awaiting responses. That is what makes multi-server pipelining
// work from a single simulated thread: while one server's ring waits on its
// round trip, the thread's poll loop is driving every other server's ring
// instead of blocking on the first — the Storm-style "keep many one-sided
// ops in flight" discipline lifted from one connection to a whole fan-out.
//
// Completions route by the member tag in WR ID bits 48+ (ring.go); tag 0 is
// both member 0 and the ungrouped encoding, which is unambiguous because an
// ungrouped connection never posts to a group's CQ. A pooled member (one
// holding an endpoint lease, DESIGN.md §13) keeps its pool-wide lease tag —
// the endpoint demux routes by it — and its lease is redirected to deliver
// into the group's queue; dispatch is therefore a tag map, not a member
// index, and every member's tag must be unique within the group.

import (
	"errors"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
	"rfp/internal/sim"
)

// maxGroupMembers bounds the member tag field (WR ID bits 48+).
const maxGroupMembers = 1 << 16

// groupTagMask selects the member-tag bits of a WR ID.
const groupTagMask = uint64(maxGroupMembers-1) << 48

// Group errors.
var (
	// ErrGrouped reports adding a client that already belongs to a group.
	ErrGrouped = errors.New("core: client already belongs to a group")
	// ErrGroupMachine reports mixing clients of different machines in one
	// group; a group is driven by one simulated thread.
	ErrGroupMachine = errors.New("core: group members must share a machine")
	// ErrTagCapacity reports a group whose WR-ID member-tag space is
	// exhausted: no tag unique within the group can be assigned to the new
	// (or re-leased) member, so admitting it would alias two members'
	// completions onto one tag.
	ErrTagCapacity = errors.New("core: group member tag capacity exhausted")
)

// Group ties several Clients (typically one per server or partition) to a
// shared completion queue so their rings progress together. Like a Client,
// a Group must be driven by a single simulated thread.
type Group struct {
	machine  *fabric.Machine
	cq       *rnic.CQ
	members  []*Client
	byTag    map[uint64]*Client // member by (shifted) WR-ID tag
	tagLimit int                // test hook; maxGroupMembers normally
}

// NewGroup creates an empty fan-out group.
func NewGroup() *Group { return &Group{} }

// setTagLimit lowers the member-tag space (tests exercise capacity overflow
// without 64k members). Only meaningful before the first Add.
func (g *Group) setTagLimit(n int) {
	if n < 1 || n > maxGroupMembers {
		n = maxGroupMembers
	}
	g.tagLimit = n
}

// limit returns the effective member-tag capacity.
func (g *Group) limit() int {
	if g.tagLimit > 0 {
		return g.tagLimit
	}
	return maxGroupMembers
}

// Add joins a connection to the group. The connection must be quiescent
// (nothing posted), ungrouped, and on the same machine as existing members.
// A full tag space — more members than WR-ID tag bits can name, or no
// group-unique tag obtainable for a pooled member — is ErrTagCapacity.
func (g *Group) Add(c *Client) error {
	if c.group != nil {
		return ErrGrouped
	}
	if c.outstanding > 0 {
		return ErrRingBusy
	}
	if len(g.members) >= g.limit() {
		return ErrTagCapacity
	}
	if g.machine == nil {
		g.machine = c.machine
		g.cq = rnic.NewCQ(g.machine.NIC())
		g.byTag = make(map[uint64]*Client)
	} else if c.machine != g.machine {
		return ErrGroupMachine
	}
	if c.epLease != nil {
		// Pooled member: it must keep posting under a tag its endpoint demux
		// knows, so the group adopts the lease tag. Leases from different
		// servers' pools can collide; re-lease until the tag is group-unique.
		if err := g.uniqueTag(c); err != nil {
			return err
		}
		c.epLease.Redirect(g.cq)
	} else {
		tag := uint64(len(g.members)) << rnic.TagShift
		if _, dup := g.byTag[tag]; dup {
			return ErrTagCapacity
		}
		c.tag = tag
	}
	c.group = g
	c.cq = g.cq
	g.byTag[c.tag] = c
	g.members = append(g.members, c)
	return nil
}

// uniqueTag re-leases a pooled member's endpoint claim until its tag
// collides with no existing member (tags are unique within one pool, so only
// members leased from other servers' pools can collide — at most one retry
// per existing member).
func (g *Group) uniqueTag(c *Client) error {
	for attempts := 0; ; attempts++ {
		if _, dup := g.byTag[c.tag]; !dup {
			return nil
		}
		if attempts > len(g.members) {
			return ErrTagCapacity
		}
		if err := c.relabel(g.cq); err != nil {
			return ErrTagCapacity
		}
	}
}

// rekey re-registers a member under a fresh lease tag (a reconnect replaced
// its endpoint lease). The old tag's map slot is vacated either way; failure
// to find a group-unique tag leaves the member unmapped — its completions
// are dropped and its calls fail at their deadlines, never misroute.
func (g *Group) rekey(c *Client, oldTag uint64) error {
	delete(g.byTag, oldTag)
	if err := g.uniqueTag(c); err != nil {
		return err
	}
	c.epLease.Redirect(g.cq)
	g.byTag[c.tag] = c
	return nil
}

// progress is the group engine: one reap/issue/await cycle spanning every
// member (the grouped counterpart of Client.progress). Reaping first means
// freshly delivered requests immediately join the members' fetch doorbells.
//
//rfp:hotpath
func (g *Group) progress(p *sim.Proc) {
	advanced := false
	for {
		e, ok := g.cq.Poll(p)
		if !ok {
			break
		}
		if g.dispatch(p, e) {
			advanced = true
		}
	}
	for _, m := range g.members {
		if m.issue(p) {
			advanced = true
		}
	}
	if advanced {
		return
	}
	// Nothing moved: block for a completion if any member is owed one —
	// whichever connection's hardware finishes first wakes the whole
	// group — else nap on the sparse reply-mode poll interval.
	for _, m := range g.members {
		if m.anyInState(slotPosted, slotReading) {
			g.dispatch(p, g.cq.Wait(p))
			return
		}
	}
	for _, m := range g.members {
		if m.mode == ModeReply && m.anyInState(slotWaiting) {
			m.replyNap(p)
			return
		}
	}
	// Every live slot across the group is backing off or awaiting a
	// resend/deadline: sleep until the earliest member's recovery timer.
	var next sim.Time
	found := false
	for _, m := range g.members {
		if !m.recoveryOn() {
			continue
		}
		if t, ok := m.nextTimer(); ok && (!found || t < next) {
			next, found = t, true
		}
	}
	if found && next > p.Now() {
		p.SleepUntil(next)
	}
}

// dispatch routes one completion to the member its WR ID tag names. Stale
// tags (a member re-keyed by reconnect, or an image naming no member) are
// dropped like stale slots — never delivered to the wrong member.
//
//rfp:hotpath
func (g *Group) dispatch(p *sim.Proc, e rnic.CQE) bool {
	if m := g.byTag[e.ID&groupTagMask]; m != nil {
		return m.handleCQE(p, e)
	}
	return false
}
