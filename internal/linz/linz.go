// Package linz is a porcupine-style linearizability checker for key-value
// operation histories (extension, DESIGN.md §16). A history is a set of
// timed operations — each with an invocation (Call) and response (Return)
// instant — and the checker decides whether some total order of the
// operations (a) respects real time (an op that returned before another was
// invoked must come first) and (b) is legal under a per-key atomic-register
// model. The search is the Wing-Gong/Lowe (WGL) algorithm: partition by
// key, then per key a depth-first enumeration over the entry list with a
// linearized-set bitset and a memoization cache of (set, state)
// configurations, which keeps seeded chaos histories tractable.
//
// The scenario harness records one ClientLog per driver thread; after the
// run has drained, CheckLogs reads the ops where the logs hold them and
// certifies the run linearizable or pins a minimized counterexample.
package linz

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Kind distinguishes reads from writes.
type Kind uint8

// Operation kinds.
const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "R"
	}
	return "W"
}

// InfTime is the Return of an operation that never completed at the client
// (a failed or ambiguous write). Such an op may take effect at any instant
// after its Call — the checker is free to linearize it anywhere in that
// open interval, which is exactly the semantics of a write the client gave
// up on: it may or may not have executed.
const InfTime = int64(1) << 62

// Op is one timed operation against one key. For writes, Arg is the value
// written; for reads, Out/Found report the observed value. Values are
// opaque uint32 versions (the workload's FillVersioned scheme).
// The fields are ordered widest first, so an Op packs into 48 bytes with
// no padding.
type Op struct {
	Client int
	Key    uint64
	Call   int64
	Return int64
	Arg    uint32 // written value (Write)
	Out    uint32 // observed value (Read, when Found)
	Kind   Kind
	Found  bool // Read observed a value (vs. not-found)
}

func (o Op) String() string {
	ret := fmt.Sprintf("%d", o.Return)
	if o.Return >= InfTime {
		ret = "inf"
	}
	if o.Kind == Write {
		return fmt.Sprintf("c%d W(k%d=v%d) [%d,%s]", o.Client, o.Key, o.Arg, o.Call, ret)
	}
	if !o.Found {
		return fmt.Sprintf("c%d R(k%d)=miss [%d,%s]", o.Client, o.Key, o.Call, ret)
	}
	return fmt.Sprintf("c%d R(k%d)=v%d [%d,%s]", o.Client, o.Key, o.Out, o.Call, ret)
}

// History is a set of operations, one entry per op (not per event).
type History []Op

// Sort orders the history deterministically: by Call, then Return, then
// client, key and payload. Render prints this order, and the checker orders
// each key's ops this way, so Sort is a canonicalization for rendering and
// hashing.
func (h History) Sort() { slices.SortFunc(h, opCmp) }

// opCmp is the canonical three-way order of Sort. Found breaks the last
// tie, so two ops compare equal only when they are identical and the order
// of a sorted history does not depend on the order it was given in. The
// times decide almost every comparison, so they are tested before the rest
// is evaluated.
func opCmp(a, b Op) int {
	if a.Call != b.Call {
		return cmp.Compare(a.Call, b.Call)
	}
	if a.Return != b.Return {
		return cmp.Compare(a.Return, b.Return)
	}
	return cmp.Or(
		cmp.Compare(a.Client, b.Client),
		cmp.Compare(a.Key, b.Key),
		cmp.Compare(a.Kind, b.Kind),
		cmp.Compare(a.Arg, b.Arg),
		cmp.Compare(a.Out, b.Out),
		cmp.Compare(b2i(a.Found), b2i(b.Found)),
	)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Render returns the history one op per line, in canonical order.
func (h History) Render() string {
	c := append(History(nil), h...)
	c.Sort()
	var b strings.Builder
	for _, o := range c {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Chunk sizes of a ClientLog: the first chunk holds logChunkMin ops and each
// next one twice the last, up to logChunkMax (2,048 ops, 96 KiB). A short
// run records into a few small chunks; a long one into full-size chunks, so
// at most one chunk's worth of space is unused.
const (
	logChunkMin = 16
	logChunkMax = 2048
)

// ClientLog records one client thread's operations. It is written by
// exactly one driver proc (single-writer, like the harness's phase cells)
// and read only after the run has quiesced. The ops live in chunks, each
// filled to its capacity before the next is started: an op is written
// once and never copied as the log grows.
type ClientLog struct {
	client int
	chunks [][]Op
}

// NewClientLog creates the recorder for one client thread.
func NewClientLog(client int) *ClientLog { return &ClientLog{client: client} }

// add stamps o with the log's client and appends it to the last chunk,
// starting a new one when it is full.
func (l *ClientLog) add(o Op) {
	o.Client = l.client
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		size := logChunkMin
		if k >= 0 {
			size = min(2*cap(l.chunks[k]), logChunkMax)
		}
		l.chunks = append(l.chunks, make([]Op, 0, size))
		k++
	}
	l.chunks[k] = append(l.chunks[k], o)
}

// Read records a completed read: the value observed (or a miss) over
// [call, ret].
func (l *ClientLog) Read(key uint64, out uint32, found bool, call, ret int64) {
	l.add(Op{Kind: Read, Key: key, Out: out, Found: found, Call: call, Return: ret})
}

// Write records an acknowledged write of value over [call, ret].
func (l *ClientLog) Write(key uint64, arg uint32, call, ret int64) {
	l.add(Op{Kind: Write, Key: key, Arg: arg, Call: call, Return: ret})
}

// FailedWrite records a write whose outcome is unknown to the client (an
// error after Call): it is kept in the history with Return = InfTime, so
// the checker may place its effect anywhere after the invocation — the
// sound treatment of resend-across-ambiguity. Failed reads, by contrast,
// are simply dropped by the recorder's caller: a read with no observed
// value constrains nothing.
func (l *ClientLog) FailedWrite(key uint64, arg uint32, call int64) {
	l.add(Op{Kind: Write, Key: key, Arg: arg, Call: call, Return: InfTime})
}
