package sim

// Conservative time-window execution for sharded environments (see
// shard.go for why lanes exist). Let tmin be the earliest pending event
// across all lanes and L the lookahead (minimum cross-machine link
// latency). No event in the window [tmin, tmin+L) can depend on a
// cross-lane message sent at or after tmin, which arrives no earlier than
// tmin+L. So Run drains each lane's window in lane-id order on its own
// goroutine, then delivers the window's cross-lane sends from the per-lane
// outboxes in (t, sending lane, emission index) order. Each lane retires in
// (t, seq) order and delivery order is total, so a sharded run replays
// byte-for-byte from its seed.

func (e *Env) runSharded(until Time) Time {
	if e.lookahead <= 0 {
		panic("sim: sharded Run with no link floor observed (ObserveLinkFloor)")
	}
	for {
		tmin := maxTime
		for _, l := range e.lanes {
			if t, ok := l.q.peek(); ok && t < tmin {
				tmin = t
			}
		}
		if tmin > until {
			break
		}
		// The window covers [tmin, tmin+L-1]; clamp at until so events
		// scheduled exactly at until still run in this call.
		wend := tmin.Add(e.lookahead) - 1
		if wend > until {
			wend = until
		}
		for _, l := range e.lanes {
			l.drain(wend)
		}
		e.deliver(wend)
	}
	for _, l := range e.lanes {
		if l.now < until {
			l.now = until
		}
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// deliver merges all outboxes and schedules their events onto the target
// lanes in (t, sending lane, emission order) — lanes are visited in id
// order and each outbox is already in emission order, so a stable sort by
// time alone realizes the total order.
func (e *Env) deliver(wend Time) {
	e.xbuf = e.xbuf[:0]
	for _, src := range e.lanes {
		if len(src.outbox) == 0 {
			continue
		}
		e.xbuf = append(e.xbuf, src.outbox...)
		src.outbox = src.outbox[:0]
	}
	if len(e.xbuf) == 0 {
		return
	}
	stableSortByTime(e.xbuf)
	for i := range e.xbuf {
		m := &e.xbuf[i]
		if m.t <= wend {
			panic("sim: cross-shard event violates lookahead window")
		}
		m.to.schedule(m.t, nil, m.fn)
		m.fn = nil
		m.to = nil
	}
}

// stableSortByTime is an insertion sort on delivery time. Outboxes are tiny
// (a handful of in-flight messages per window) and mostly sorted already;
// insertion sort keeps ties stable and avoids sort.SliceStable's closure
// allocation per window.
func stableSortByTime(ms []crossEvent) {
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i
		for j > 0 && m.t < ms[j-1].t {
			ms[j] = ms[j-1]
			j--
		}
		ms[j] = m
	}
}
