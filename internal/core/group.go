package core

// Fan-out groups: one client thread keeping several connections' rings full
// at once. A Group is membership and one completion queue, nothing more:
// every member's completions land in the group's queue, and the engine
// (ring.go) steps every connection sharing a queue — so a Poll on any
// member reaps for all of them and re-issues fetch reads for every member
// with slots awaiting responses. That is what makes multi-server pipelining
// work from a single simulated thread: while one server's ring waits on its
// round trip, the thread's poll loop is driving every other server's ring
// instead of blocking on the first — the Storm-style "keep many one-sided
// ops in flight" discipline lifted from one connection to a whole fan-out.
//
// Completions route by the lease tag in WR ID bits 48+ (ring.go). A member
// carries its endpoint lease's tag — given at Accept, fresh after each
// reconnect; the endpoint demux routes by it — and the lease is redirected
// to deliver into the group's queue, which the engine routes by the same
// tag to the member holding it. Tags are allocated by the client machine's
// NIC, unique among that machine's live leases whichever server they lead
// to, and a group is confined to one machine: members cannot collide.

import (
	"errors"
	"slices"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
)

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
	members []*Client // in joining order, the order the engine steps them
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
	} else if c.machine != g.machine {
		return ErrGroupMachine
	}
	c.lease.Redirect(g.cq)
	c.group = g
	c.cq = g.cq
	g.members = append(g.members, c)
	return nil
}

// remove drops a closed member: its tag returns to the machine's free list,
// so no completion may route to it any more.
func (g *Group) remove(c *Client) {
	g.members = slices.DeleteFunc(g.members, func(m *Client) bool { return m == c })
	c.group = nil
}
