package core

// The on-line control plane. The paper's Sec. 3.2 offers two ways to
// gather the M samples its enumeration needs: "pre-running it for a
// certain time or sampling periodically during its run". Tuner implements
// the second: attach one to a Client (or share one across the clients of a
// service) and every call's result size and server process time feed a
// bounded sample window; every Period observations the enumerations re-run
// and the clients' parameters are updated in place. Workload drift — say,
// a value-size distribution that grows — is then absorbed without
// restarting.

import (
	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

// Three knobs hang off the same window: F (SelectF, Eq. 2), R (SelectR,
// Eq. 1's bound), and — with TuneDepth — the request-ring depth
// (SelectDepth, the pipelining extension). F and depth apply per call
// (SetFetchSize / SetDepth): calls in flight finish with the values they
// were posted with, and the next post takes the new ones.

// Tuner adapts a connection's R, F — and optionally ring depth — from
// on-line samples.
type Tuner struct {
	cal     Calibration
	sampler *Sampler
	period  uint64
	seen    uint64
	clients []*Client
	rec     *telemetry.Recorder // decision log sink (telemetry.go)

	// TuneR controls whether the retry threshold is re-selected too
	// (default true).
	TuneR bool

	// TuneDepth controls whether the ring depth is re-selected as well —
	// the control plane's third knob, bounded by each client's MaxDepth.
	// Off by default: only callers running pipelined load gain from it. A
	// shrink makes Post report ErrRingFull until the calls above the new
	// depth are claimed.
	TuneDepth bool

	// Retunes counts how many times re-selection changed a parameter.
	Retunes uint64

	// Demotions counts clients that permanently fell back to server-reply
	// mode after persistent fault recovery (recover.go); the control plane
	// surfaces it so operators can spot a degraded fabric.
	Demotions uint64
}

// NewTuner creates a tuner with the given sample-window capacity and
// re-selection period (observations between enumerations). Zero values
// pick 2048 and 1024.
func NewTuner(cal Calibration, window, period int) *Tuner {
	if period <= 0 {
		period = 1024
	}
	return &Tuner{cal: cal, sampler: NewSampler(window), period: uint64(period), TuneR: true}
}

// observe records one completed call and, at period boundaries, re-runs
// the bounded enumeration and applies any change to every attached client.
// Each applied change lands in the telemetry decision log (if a recorder is
// routed) with the sample window that justified it.
func (t *Tuner) observe(p *sim.Proc, c *Client, respSize int, procNs int64) {
	t.sampler.Observe(respSize, procNs)
	t.seen++
	if t.seen%t.period != 0 {
		return
	}
	// SelectF reasons over result payload sizes (the header is added
	// internally). Each client compares the pick clamped to its own
	// buffers, as SetFetchSize applies it: a client whose buffers cap F
	// below the pick has nothing to change.
	newF := SelectF(t.cal, t.sampler.Sizes)
	newR := c.params.R
	if t.TuneR {
		newR = SelectR(t.cal, t.sampler.ProcTimes)
	}
	changed := false
	for _, cc := range t.clients {
		if f := cc.clampF(newF); f != cc.params.F {
			t.logDecision(p, cc, "F", cc.params.F, f)
			cc.SetFetchSize(f)
			changed = true
		}
		if t.TuneR && newR != cc.params.R {
			t.logDecision(p, cc, "R", cc.params.R, newR)
			cc.params.R = newR
			changed = true
		}
		if t.TuneDepth {
			// Depth is bounded per client by its ring capacity, so the
			// enumeration runs against each client's own MaxDepth.
			d := SelectDepth(t.cal, newF, t.sampler.Sizes, t.sampler.ProcTimes, cc.maxDepth)
			if d != cc.depth {
				t.logDecision(p, cc, "depth", cc.depth, d)
				cc.SetDepth(d)
				changed = true
			}
		}
	}
	if changed {
		t.Retunes++
	}
}

// AttachTuner hooks a tuner into the client's receive path. Passing nil
// detaches. A single tuner may be attached to many clients: they share one
// sample window and every re-selection is applied to all of them at once.
func (c *Client) AttachTuner(t *Tuner) {
	if c.tuner == t {
		return
	}
	if c.tuner != nil {
		old := c.tuner
		for i, cc := range old.clients {
			if cc == c {
				old.clients = append(old.clients[:i], old.clients[i+1:]...)
				break
			}
		}
	}
	c.tuner = t
	if t != nil {
		t.clients = append(t.clients, c)
	}
}

// Tuner returns the attached tuner, if any.
func (c *Client) Tuner() *Tuner { return c.tuner }
