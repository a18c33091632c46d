// Package shard fans one client thread's KV operations out across several
// Jakiro servers. The synchronous path (Get/Put) just routes each key to its
// owning server; the pipelined path (PostOp/PollOp) rides the core.Group
// fan-out engine: every per-partition connection of every server joins one
// group with a shared completion queue, so a single client thread keeps all
// the servers' request rings full concurrently instead of blocking on one
// round trip at a time — the ROADMAP's "one client keeps several servers'
// rings full at once".
package shard

import (
	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/jakiro"
	"rfp/internal/kvstore/kv"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
	"rfp/internal/workload"
)

// For shards a key across n server machines with a decorrelated hash mix,
// independent of both the partition and bucket hashes the stores use
// internally.
func For(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	h := kv.HashKey(key)
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 31
	return int(h % uint64(n))
}

// Client is one client thread's handle to a set of sharded Jakiro servers.
// Like the per-server clients it wraps, it must be driven by a single
// simulated thread.
type Client struct {
	per   []*jakiro.Client
	group *core.Group
	kb    []byte
}

// New connects a client thread on machine cm to every server. With
// pipeline set, all the per-partition connections join one fan-out group,
// so posted operations on different servers progress together; without it
// the client is a plain synchronous router (the pre-group baseline).
func New(cm *fabric.Machine, servers []*jakiro.Server, pipeline bool) (*Client, error) {
	c := &Client{kb: make([]byte, workload.KeySize)}
	if pipeline {
		c.group = core.NewGroup()
	}
	for _, srv := range servers {
		jc := srv.NewClient(cm)
		if c.group != nil {
			if err := jc.JoinGroup(c.group); err != nil {
				return nil, err
			}
		}
		c.per = append(c.per, jc)
	}
	return c, nil
}

// Server returns the per-server client for shard s (for stats and tests).
func (c *Client) Server(s int) *jakiro.Client { return c.per[s] }

// NumServers returns the fan-out width.
func (c *Client) NumServers() int { return len(c.per) }

// ServerFor routes a key to its owning server.
func (c *Client) ServerFor(key uint64) int {
	return For(workload.EncodeKey(c.kb, key), len(c.per))
}

// Get fetches key's value from its owning server (kv.Conn).
func (c *Client) Get(p *sim.Proc, key uint64, out []byte) (int, bool, error) {
	return c.per[c.ServerFor(key)].Get(p, key, out)
}

// Put stores value under key on its owning server (kv.Conn).
func (c *Client) Put(p *sim.Proc, key uint64, value []byte) error {
	return c.per[c.ServerFor(key)].Put(p, key, value)
}

// PendingOp tracks one posted operation and the server carrying it.
type PendingOp struct {
	server int
	pd     jakiro.PendingOp
}

// PostOp stages one GET or PUT on the owning server's ring without
// waiting. A full ring surfaces as core.ErrRingFull: poll an earlier
// operation and retry.
func (c *Client) PostOp(p *sim.Proc, op workload.Op) (PendingOp, error) {
	s := c.ServerFor(op.Key)
	pd, err := c.per[s].PostOp(p, op)
	if err != nil {
		return PendingOp{}, err
	}
	return PendingOp{server: s, pd: pd}, nil
}

// PollOp blocks until the posted operation completes (driving every
// grouped ring while it waits), reporting whether it found/stored its key.
func (c *Client) PollOp(p *sim.Proc, pd PendingOp, scratch []byte) (bool, error) {
	return c.per[pd.server].PollOp(p, pd.pd, scratch)
}

// SetRecorder attaches one telemetry recorder to every server's
// per-partition connections, so telemetry aggregates across the whole
// fan-out. Nil detaches.
func (c *Client) SetRecorder(rec *telemetry.Recorder) {
	for _, jc := range c.per {
		jc.SetRecorder(rec)
	}
}

// Stats aggregates the RFP client statistics over every server's
// connections.
func (c *Client) Stats() core.ClientStats {
	var agg core.ClientStats
	for _, jc := range c.per {
		agg.Add(jc.Stats())
	}
	return agg
}
