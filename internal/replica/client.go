package replica

import (
	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
)

// Client is an application client of the replicated service, holding one
// RFP connection per node. Writes are routed to the leader (with hint-based
// retargeting when the guess is stale); reads go to followers round-robin
// when LocalReads is set — the RFP fetch path then serves them from the
// follower's local store — and fall back to the leader when a follower
// cannot serve safely.
type Client struct {
	svc        *Service
	conns      []*core.Client
	leader     int // current leader guess
	rr         int // round-robin follower cursor
	localReads bool
	kv         kv.Stub

	// Retries counts statusRetry bounces; Redirects counts leader-hint
	// retargets; Fallbacks counts follower reads that fell back.
	Retries   uint64
	Redirects uint64
	Fallbacks uint64
}

// clientAttempts bounds one operation's node visits; combined with the
// per-call deadline it bounds operation latency even mid-failover.
const clientAttempts = 10

// clientRetryNs is the pause before retrying after a statusRetry bounce.
const clientRetryNs = 2_000

// NewClient connects an application client on cm to every node. LocalReads
// routes GETs to followers. It panics after Start.
func (s *Service) NewClient(cm *fabric.Machine, params core.Params, localReads bool) *Client {
	c := &Client{
		svc:        s,
		leader:     0,
		localReads: localReads && len(s.nodes) > 1,
		kv:         kv.NewStub(s.cfg.MaxValue),
	}
	for _, n := range s.nodes {
		cli, _ := n.srv.Accept(cm, params)
		c.conns = append(c.conns, cli)
	}
	return c
}

// nextFollower picks the next non-leader node round-robin.
func (c *Client) nextFollower() int {
	n := len(c.conns)
	for i := 0; i < n; i++ {
		c.rr = (c.rr + 1) % n
		if c.rr != c.leader {
			return c.rr
		}
	}
	return c.leader
}

// Get reads key, following the read-routing policy. A served read reflects
// every acknowledged write of the key, wherever it was served.
func (c *Client) Get(p *sim.Proc, key uint64, out []byte) (int, bool, error) {
	target := c.leader
	if c.localReads {
		target = c.nextFollower()
	}
	req := c.kv.EncodeGet(key)
	for attempt := 0; attempt < clientAttempts; attempt++ {
		status, payload, err := c.kv.Call(p, c.conns[target], req)
		if err != nil {
			target = (target + 1) % len(c.conns)
			continue
		}
		switch status {
		case kv.StatusOK:
			return copy(out, payload), true, nil
		case kv.StatusNotFound:
			return 0, false, nil
		case statusRetry:
			c.Retries++
			if target != c.leader {
				// The follower cannot serve safely right now; the leader
				// always can while it leads.
				c.Fallbacks++
				target = c.leader
			} else {
				p.Sleep(sim.Duration(clientRetryNs))
				target = (target + 1) % len(c.conns)
			}
		case statusNotLeader:
			c.redirect(payload, &target)
		default:
			return 0, false, ErrBadResponse
		}
	}
	return 0, false, ErrUnavailable
}

// Put writes key via the leader. A nil return means the write is committed
// on every active replica; ErrUnavailable leaves it ambiguous.
func (c *Client) Put(p *sim.Proc, key uint64, value []byte) error {
	req, err := c.kv.EncodePut(key, value)
	if err != nil {
		return err
	}
	target := c.leader
	for attempt := 0; attempt < clientAttempts; attempt++ {
		status, payload, err := c.kv.Call(p, c.conns[target], req)
		if err != nil {
			target = (target + 1) % len(c.conns)
			continue
		}
		switch status {
		case kv.StatusOK:
			c.leader = target
			return nil
		case statusRetry:
			c.Retries++
			p.Sleep(sim.Duration(clientRetryNs))
		case statusNotLeader:
			c.redirect(payload, &target)
		default:
			return ErrBadResponse
		}
	}
	return ErrUnavailable
}

// redirect follows a statusNotLeader hint (the decoded payload's first byte
// names the responder's leader guess), or rotates when the responder does not
// know the leader either.
func (c *Client) redirect(payload []byte, target *int) {
	c.Redirects++
	hint := -1
	if len(payload) >= 1 && payload[0] != 0xff {
		hint = int(payload[0])
	}
	if hint >= 0 && hint < len(c.conns) && hint != *target {
		*target = hint
	} else {
		*target = (*target + 1) % len(c.conns)
	}
	c.leader = *target
}
