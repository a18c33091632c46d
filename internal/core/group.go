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
// Completions route by the lease tag in WR ID bits 48+ (ring.go). A member
// keeps the tag its endpoint lease was given at Accept — the endpoint demux
// routes by it — and the lease is redirected to deliver into the group's
// queue, which dispatches by the same tag. Tags are allocated by the client
// machine's NIC, unique among that machine's live leases whichever server
// they lead to, and a group is confined to one machine: members cannot
// collide.

import (
	"errors"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
	"rfp/internal/sim"
)

// groupTagMask selects the lease-tag bits of a WR ID.
const groupTagMask = uint64(rnic.MaxTags-1) << rnic.TagShift

// Group errors.
var (
	// ErrGrouped reports adding a client that already belongs to a group.
	ErrGrouped = errors.New("core: client already belongs to a group")
	// ErrGroupMachine reports mixing clients of different machines in one
	// group; a group is driven by one simulated thread.
	ErrGroupMachine = errors.New("core: group members must share a machine")
)

// Group ties several Clients (typically one per server or partition) to a
// shared completion queue so their rings progress together. Like a Client,
// a Group must be driven by a single simulated thread.
type Group struct {
	machine *fabric.Machine
	cq      *rnic.CQ
	members []*Client
	byTag   map[uint64]*Client // member by (shifted) WR-ID tag
}

// NewGroup creates an empty fan-out group.
func NewGroup() *Group { return &Group{} }

// Add joins a connection to the group. The connection must be quiescent
// (nothing posted), ungrouped, and on the same machine as existing members.
func (g *Group) Add(c *Client) error {
	if c.group != nil {
		return ErrGrouped
	}
	if c.outstanding > 0 {
		return ErrRingBusy
	}
	if g.machine == nil {
		g.machine = c.machine
		g.cq = rnic.NewCQ(g.machine.NIC())
		g.byTag = make(map[uint64]*Client)
	} else if c.machine != g.machine {
		return ErrGroupMachine
	}
	c.lease.Redirect(g.cq)
	c.group = g
	c.cq = g.cq
	g.byTag[c.tag] = c
	g.members = append(g.members, c)
	return nil
}

// retag moves member c to the tag of its fresh lease (reconnect), vacating
// the old slot so a straggler completion under it names no member.
func (g *Group) retag(c *Client, tag uint64) {
	delete(g.byTag, c.tag)
	g.byTag[tag] = c
}

// remove drops a closed member: its tag returns to the machine's free list,
// so the slot must not outlive it.
func (g *Group) remove(c *Client) {
	delete(g.byTag, c.tag)
	for i, m := range g.members {
		if m == c {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	c.group = nil
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
		if owed, _ := m.inFlight(); owed {
			g.dispatch(p, g.cq.Wait(p))
			return
		}
	}
	for _, m := range g.members {
		if _, pushed := m.inFlight(); pushed {
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
// tags (a member re-bound by reconnect, or an image naming no member) are
// dropped like stale slots — never delivered to the wrong member.
//
//rfp:hotpath
func (g *Group) dispatch(p *sim.Proc, e rnic.CQE) bool {
	if m := g.byTag[e.ID&groupTagMask]; m != nil {
		return m.handleCQE(p, e)
	}
	return false
}
