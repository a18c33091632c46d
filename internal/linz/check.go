package linz

// The WGL (Wing-Gong/Lowe) search. The model is a per-key atomic register
// holding (value, present): a Write is always legal and sets the state; a
// Read is legal iff it observed exactly the current state. Because the
// model is per-key and operations on different keys commute, the history is
// partitioned by key and each partition is checked independently — the
// whole history is linearizable iff every partition is (Herlihy & Wing's
// locality theorem).
//
// Per partition the search works over an entry list: each op contributes a
// call entry and a return entry, sorted by time (calls before returns at
// equal instants, so ops that touch at a point still count as concurrent —
// the permissive tie-break can only admit more legal orders, never reject a
// linearizable history). The DFS repeatedly tries to linearize some op
// whose call entry precedes the first pending return: if the op is legal
// from the current state and the resulting (linearized-set, state)
// configuration is new, the op is committed and its entries lifted out of
// the list; on reaching a return entry with nothing left to try, the search
// backtracks. The cache of visited configurations is what makes the
// exponential search practical on real histories.
//
// Memory: CheckKV copies no op. It sorts the history it is handed in
// place, by key and then in canonical op order within a key, so every
// partition is a contiguous run already in the order its search numbers
// the ops. One checker runs every partition in buffers it keeps: the event
// list, the entry list as an index-linked arena, the linearized set, the
// frame stack, and the configuration cache as an open-addressed table whose
// bitsets live in one word arena. A check allocates a bounded number of
// times, not a few times per op.

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Verdict is the checker's decision.
type Verdict int

// Verdicts.
const (
	// Linearizable: a legal total order exists.
	Linearizable Verdict = iota
	// Illegal: no legal total order exists; Result carries a counterexample.
	Illegal
	// Unknown: the node budget was exhausted before a decision, or the
	// history is malformed (Result.Err says which op).
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Linearizable:
		return "linearizable"
	case Illegal:
		return "illegal"
	default:
		return "unknown"
	}
}

// ErrBadInterval reports an op whose Return precedes its Call: no instant
// lies inside its interval, so the history cannot be checked.
var ErrBadInterval = errors.New("linz: operation returns before it is called")

// Options tunes one check.
type Options struct {
	// NodeBudget bounds the total number of search nodes (configuration
	// visits) across all partitions; 0 means DefaultNodeBudget. Exhausting
	// it yields Unknown, never a wrong verdict.
	NodeBudget int64
	// Minimize shrinks the failing partition's history to a locally minimal
	// counterexample (greedy removal to fixpoint) when the verdict is
	// Illegal.
	Minimize bool
}

// DefaultNodeBudget caps the search at a size far beyond any seeded
// scenario history (which stays in the low thousands of nodes) while
// keeping adversarial fuzz inputs bounded.
const DefaultNodeBudget = int64(2_000_000)

// Result is one check's outcome.
type Result struct {
	Verdict    Verdict
	Ops        int   // history size checked
	Partitions int   // number of per-key partitions
	Nodes      int64 // search nodes visited, summed over partitions in key order

	// BadKey and Counterexample identify the first failing partition (in
	// ascending key order) when the verdict is Illegal. The counterexample
	// is the partition's history, minimized when Options.Minimize was set.
	BadKey         uint64
	Counterexample History

	// Err is set, with verdict Unknown, when the history is malformed; it
	// wraps ErrBadInterval and names the first offending op.
	Err error
}

// Init supplies the initial register state for a key: the value and whether
// the key exists before the history starts. nil means every key starts
// absent.
type Init func(key uint64) (value uint32, present bool)

// CheckKV checks a key-value history against the atomic-register-per-key
// model. It reorders h: on return h is sorted by key, and in canonical op
// order (History.Sort) within a key. The result is deterministic in the
// set of ops in h, whatever their order, and in init and options: the
// partitions are visited in ascending key order and each partition's
// search is a deterministic DFS over its ops in canonical order, so the
// node count replays exactly. A malformed history names its first bad op
// in that order.
func CheckKV(h History, init Init, opt Options) Result {
	res := Result{Verdict: Linearizable, Ops: len(h)}
	slices.SortFunc(h, func(a, b Op) int { return cmp.Or(cmp.Compare(a.Key, b.Key), opCmp(a, b)) })
	for _, o := range h {
		if o.Return < o.Call {
			res.Verdict = Unknown
			res.Err = fmt.Errorf("%w: %s", ErrBadInterval, o)
			return res
		}
	}
	budget := opt.NodeBudget
	if budget <= 0 {
		budget = DefaultNodeBudget
	}
	starts := partition(h)
	res.Partitions = len(starts) - 1
	longest := 0
	for i := range res.Partitions {
		longest = max(longest, starts[i+1]-starts[i])
	}

	var c checker
	c.presize(longest)
	for i := range res.Partitions {
		part := h[starts[i]:starts[i+1]:starts[i+1]]
		k := part[0].Key
		var st regState
		if init != nil {
			st.val, st.present = init(k)
		}
		v, nodes := c.check(part, st, budget-res.Nodes)
		res.Nodes += nodes
		if v == Linearizable {
			continue
		}
		res.Verdict = v
		if v == Illegal {
			res.BadKey = k
			ce := slices.Clone(part)
			if opt.Minimize {
				// Each single-removal probe checks a strictly smaller history,
				// so it needs the same order of search work as the original
				// failing check — give it a small multiple of that (with a
				// floor for tiny histories) rather than the whole budget.
				// Probes that exhaust it come back Unknown and the op is
				// kept, so minimization costs O(n²·nodes) search nodes, not
				// O(n²·budget), on adversarial histories.
				ce = c.minimize(ce, st, min(nodes*4+256, budget))
			}
			res.Counterexample = ce
		}
		return res
	}
	return res
}

// partition returns the boundaries of the per-key runs of h, which is
// sorted by key: run i is h[starts[i]:starts[i+1]], and there are
// len(starts)-1 runs.
func partition(h History) (starts []int) {
	starts = []int{0}
	for i := 1; i < len(h); i++ {
		if h[i].Key != h[i-1].Key {
			starts = append(starts, i)
		}
	}
	if len(h) > 0 {
		starts = append(starts, len(h))
	}
	return starts
}

// regState is the per-key register model state.
type regState struct {
	val     uint32
	present bool
}

// step applies op to the state, reporting legality. Writes are total;
// a read is legal iff it observed the current state exactly.
func (s regState) step(o *Op) (regState, bool) {
	if o.Kind == Write {
		return regState{val: o.Arg, present: true}, true
	}
	if o.Found != s.present {
		return s, false
	}
	if o.Found && o.Out != s.val {
		return s, false
	}
	return s, true
}

// event is one end of an op's interval, before it becomes an entry.
type event struct {
	t   int64
	ret bool // return events order after call events at the same t
	op  int32
}

func eventCmp(a, b event) int {
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	if a.ret != b.ret {
		return cmp.Compare(b2i(a.ret), b2i(b.ret))
	}
	return cmp.Compare(a.op, b.op)
}

// entry is one node of the per-partition entry list, linked by index into
// checker.ents; index 0 is the list head, so next == 0 ends the list. A
// call entry's match is the index of its return entry; a return entry has
// match == 0. op is the op's index in the partition and its bit position
// in the linearized set.
type entry struct {
	op, match  int32
	prev, next int32
}

// bitset is the linearized-op set, with an FNV-style hash for the
// configuration cache.
type bitset []uint64

func (b bitset) set(i int32)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int32) { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func (b bitset) hash(s regState) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range b {
		h ^= w
		h *= 1099511628211
	}
	h ^= uint64(s.val)
	h *= 1099511628211
	if s.present {
		h ^= 1
		h *= 1099511628211
	}
	return h
}

// slot is one configuration-cache cell: a visited (linearized set, state)
// pair whose set is words[off : off+len(lin)]. A cell belongs to the
// current partition iff gen matches the checker's; older ones read empty.
type slot struct {
	hash  uint64
	off   int
	state regState
	gen   uint32
}

type frame struct {
	e     int32
	state regState
}

// checker holds the search buffers; each partition reuses them.
type checker struct {
	evs   []event
	ents  []entry
	calls []int32 // op index -> its call entry, while the list is built
	lin   bitset
	stack []frame
	slots []slot   // open-addressed, power-of-two size, linear probing
	shift uint     // 64 - log2(len(slots))
	words []uint64 // the cached sets, len(lin) words each
	used  int      // cells of the current generation
	gen   uint32
}

// presize gives every buffer room for a partition of n ops, so a check
// whose partitions are at most n long grows nothing unless its search
// caches more than about 2n configurations in one partition.
func (c *checker) presize(n int) {
	w := (n + 63) / 64
	c.evs = make([]event, 0, 2*n)
	c.ents = make([]entry, 0, 2*n+1)
	c.calls = make([]int32, n)
	c.lin = make(bitset, w)
	c.stack = make([]frame, 0, n)
	c.words = make([]uint64, 0, 2*n*w)
	size := 64
	for size < 4*n {
		size *= 2
	}
	c.setSlots(size)
}

// setSlots replaces the cache table with an empty one of size cells, a
// power of two.
func (c *checker) setSlots(size int) {
	c.slots = make([]slot, size)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home is a configuration hash's first probe: the top bits of its
// Fibonacci product. The FNV hash's low bits depend only on the low bits
// of the set's words, so masking it directly would crowd the table.
func (c *checker) home(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> c.shift }

// reset empties the set, the stack and the cache for a partition of n ops.
func (c *checker) reset(n int) {
	w := (n + 63) / 64
	c.lin = slices.Grow(c.lin[:0], w)[:w]
	clear(c.lin)
	c.stack = c.stack[:0]
	c.words = c.words[:0]
	c.used = 0
	c.gen++
	if c.gen == 0 {
		clear(c.slots)
		c.gen = 1
	}
}

// grow doubles the cache table and re-inserts the current generation.
func (c *checker) grow() {
	old := c.slots
	c.setSlots(max(2*len(old), 64))
	mask := uint64(len(c.slots) - 1)
	for _, s := range old {
		if s.gen != c.gen {
			continue
		}
		i := c.home(s.hash)
		for c.slots[i].gen == c.gen {
			i = (i + 1) & mask
		}
		c.slots[i] = s
	}
}

// seen reports whether (lin, s) was visited before in this partition, and
// records it if not. Membership is exact: a hash match still compares the
// state and every word of the set.
//
//rfp:hotpath
func (c *checker) seen(s regState) bool {
	if 2*(c.used+1) > len(c.slots) {
		c.grow()
	}
	h := c.lin.hash(s)
	w := len(c.lin)
	mask := uint64(len(c.slots) - 1)
	for i := c.home(h); ; i = (i + 1) & mask {
		sl := &c.slots[i]
		if sl.gen != c.gen {
			*sl = slot{hash: h, off: len(c.words), state: s, gen: c.gen}
			c.words = append(c.words, c.lin...)
			c.used++
			return false
		}
		if sl.hash == h && sl.state == s && c.lin.equal(c.words[sl.off:sl.off+w]) {
			return true
		}
	}
}

// makeEntries builds the sorted, linked entry list for one partition. Every
// op's call sorts before its return (CheckKV rejects Return < Call), so a
// return event always finds its call entry already in calls.
//
//rfp:hotpath
func (c *checker) makeEntries(ops History) {
	c.evs = c.evs[:0]
	for i := range ops {
		c.evs = append(c.evs,
			event{t: ops[i].Call, op: int32(i)},
			event{t: ops[i].Return, ret: true, op: int32(i)})
	}
	slices.SortFunc(c.evs, eventCmp)
	c.calls = slices.Grow(c.calls[:0], len(ops))[:len(ops)]
	c.ents = append(c.ents[:0], entry{op: -1})
	for _, ev := range c.evs {
		at := int32(len(c.ents))
		c.ents = append(c.ents, entry{op: ev.op, prev: at - 1})
		c.ents[at-1].next = at
		if ev.ret {
			c.ents[c.calls[ev.op]].match = at
		} else {
			c.calls[ev.op] = at
		}
	}
}

// lift removes call entry i and its return from the list.
func (c *checker) lift(i int32) {
	es := c.ents
	e := &es[i]
	es[e.prev].next = e.next
	if e.next != 0 {
		es[e.next].prev = e.prev
	}
	m := &es[e.match]
	es[m.prev].next = m.next
	if m.next != 0 {
		es[m.next].prev = m.prev
	}
}

// unlift reinserts lifted call entry i and its return.
func (c *checker) unlift(i int32) {
	es := c.ents
	e := &es[i]
	m := &es[e.match]
	es[m.prev].next = e.match
	if m.next != 0 {
		es[m.next].prev = e.match
	}
	es[e.prev].next = i
	if e.next != 0 {
		es[e.next].prev = i
	}
}

// check runs the WGL DFS over one partition, sorted in canonical op order.
// It returns the verdict and the number of search nodes visited
// (call-entry linearization attempts), which is deterministic for a given
// (ops, init) input.
//
//rfp:hotpath
func (c *checker) check(ops History, init regState, budget int64) (Verdict, int64) {
	if len(ops) == 0 {
		return Linearizable, 0
	}
	c.makeEntries(ops)
	c.reset(len(ops))
	es := c.ents
	state := init
	var nodes int64

	e := es[0].next
	for es[0].next != 0 {
		if e != 0 && es[e].match != 0 {
			// Call entry: try to linearize this op here.
			nodes++
			if nodes > budget {
				return Unknown, nodes
			}
			op := es[e].op
			if next, ok := state.step(&ops[op]); ok {
				c.lin.set(op)
				if !c.seen(next) {
					c.stack = append(c.stack, frame{e: e, state: state})
					state = next
					c.lift(e)
					e = es[0].next
					continue
				}
				c.lin.clear(op)
			}
			e = es[e].next
			continue
		}
		// A return entry — the op it closes was not linearized in time — or
		// the end of the list, reached without linearizing anything new and
		// without meeting a return (every remaining op is blocked; only
		// possible when all remaining returns are at InfTime and none of the
		// pending ops is legal): undo the most recent choice, or fail if
		// there is none.
		if len(c.stack) == 0 {
			return Illegal, nodes
		}
		f := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		state = f.state
		c.lin.clear(es[f.e].op)
		c.unlift(f.e)
		e = es[f.e].next
	}
	return Linearizable, nodes
}
