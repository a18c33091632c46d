package sim

// calQueue is the two-level pending-event structure behind each scheduler
// lane: a calendar (ring of fixed-width time buckets) for the near future
// plus a binary heap for events beyond the calendar horizon. Virtually all
// simulated delays — engine service times, wire times, propagation, poll
// intervals — are well under the horizon, so the common push is an append
// into a recycled bucket and the common pop walks an already-sorted active
// bucket: no heap sift, no allocation in steady state.
//
// Ordering is (time, seq), exactly as the old single binary heap: buckets
// partition events by time so cross-bucket order is free, and the active
// bucket is insertion-sorted when first touched (bursts arrive nearly
// seq-ordered, making that pass close to linear).

const (
	// cqBucketBits sets the bucket width: 1<<6 = 64 virtual nanoseconds.
	cqBucketBits = 6
	// cqNumBuckets sets the calendar horizon: 256 buckets * 64ns = 16.4us.
	// Events farther out overflow into the far heap and are spilled back
	// into the calendar as the current bucket advances toward them.
	cqNumBuckets = 256
	cqMask       = cqNumBuckets - 1
)

type calQueue struct {
	buckets [cqNumBuckets][]event
	act     []event // the current bucket, sorted by (t, seq); nil if none active
	ai      int     // next unretired index into act
	cb      int64   // absolute bucket number of the current/active bucket
	n       int     // events resident in buckets + act (excludes far)
	far     eventHeap
}

func evLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// push inserts ev, keeping (t, seq) order observable through pop.
//
//rfp:hotpath
func (q *calQueue) push(ev event) {
	b := int64(ev.t) >> cqBucketBits
	d := b - q.cb
	if d <= 0 {
		if q.act != nil {
			// Insert into the active bucket in order, at or after the
			// drain cursor. Events land here with t >= now and a fresh
			// (maximal) seq, so the scan is almost always length zero.
			if len(q.act) == cap(q.act) && q.ai > len(q.act)/2 {
				q.reclaimAct()
			}
			q.act = append(q.act, ev)
			i := len(q.act) - 1
			for i > q.ai && evLess(ev, q.act[i-1]) {
				q.act[i] = q.act[i-1]
				i--
			}
			q.act[i] = ev
			q.n++
			return
		}
		if d < 0 {
			// Nothing is resident (the calendar only advances past empty
			// buckets), so rewind it to the new event's bucket.
			q.cb = b
			d = 0
		}
	}
	if d < cqNumBuckets {
		slot := b & cqMask
		q.buckets[slot] = append(q.buckets[slot], ev)
		q.n++
		return
	}
	q.far.push(ev)
}

// reclaimAct moves the active bucket's unretired events to the front of its
// array. A peek (sleepFast, the window loop) activates the next non-empty
// bucket while the clock is still short of it, and every event scheduled
// until the clock catches up is inserted into that bucket and retired from
// it: without this its array would grow to the number of events retired in
// the gap, not the number pending at once. Called only when the array is
// full and more than half retired, so the copy is amortized over the pushes
// that refill it.
//
//rfp:hotpath
func (q *calQueue) reclaimAct() {
	n := copy(q.act, q.act[q.ai:])
	clear(q.act[n:])
	q.act, q.ai = q.act[:n], 0
}

// ready advances the calendar until the next event in (t, seq) order sits at
// the head of the active bucket. It returns false when the queue is empty.
//
//rfp:hotpath
func (q *calQueue) ready() bool {
	for {
		if q.ai < len(q.act) {
			return true
		}
		if q.act != nil {
			// Recycle the drained bucket's storage, then fall through to
			// re-check the same slot: events pushed during the drain of
			// its last entry land in buckets[cb&mask], not act.
			q.buckets[q.cb&cqMask] = q.act[:0]
			q.act = nil
			q.ai = 0
		}
		if b := q.buckets[q.cb&cqMask]; len(b) > 0 {
			q.sortBucket(b)
			q.act = b
			q.ai = 0
			continue
		}
		if q.n == 0 {
			if len(q.far) == 0 {
				return false
			}
			// Calendar empty: jump straight to the far heap's first
			// bucket instead of scanning empty slots one by one.
			q.cb = int64(q.far[0].t) >> cqBucketBits
		} else {
			q.cb++
		}
		for len(q.far) > 0 && int64(q.far[0].t)>>cqBucketBits < q.cb+cqNumBuckets {
			ev := q.far.pop()
			slot := (int64(ev.t) >> cqBucketBits) & cqMask
			q.buckets[slot] = append(q.buckets[slot], ev)
			q.n++
		}
	}
}

// sortBucket orders one bucket by (t, seq) in place. Insertion sort: buckets
// hold a handful of events pushed in nearly (t, seq) order already, and
// unlike sort.Slice it does not allocate a closure on the hot path.
//
//rfp:hotpath
func (q *calQueue) sortBucket(b []event) {
	for i := 1; i < len(b); i++ {
		ev := b[i]
		j := i
		for j > 0 && evLess(ev, b[j-1]) {
			b[j] = b[j-1]
			j--
		}
		b[j] = ev
	}
}

// peek returns the time of the next event without consuming it.
//
//rfp:hotpath
func (q *calQueue) peek() (Time, bool) {
	if !q.ready() {
		return 0, false
	}
	return q.act[q.ai].t, true
}

// pop removes and returns the next event if its time is <= until. The queue
// state persists across calls, so a pop that declines (next event beyond
// until) costs one peek.
//
//rfp:hotpath
func (q *calQueue) pop(until Time) (event, bool) {
	if !q.ready() {
		return event{}, false
	}
	ev := q.act[q.ai]
	if ev.t > until {
		return event{}, false
	}
	q.act[q.ai] = event{} // drop the fn/proc references
	q.ai++
	q.n--
	return ev, true
}

// empty reports whether no events remain at all.
func (q *calQueue) empty() bool { return !q.ready() }

// eventHeap is a binary min-heap ordered by (t, seq) — the far-future level
// of the calendar queue.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
