package replica

import "math/bits"

// Chunk sizes of the replicated log: the first chunk holds logChunkMin
// entries and each next one twice the last, for logChunkSteps chunks; every
// later chunk holds logChunkMax (4,096 entries, 160 KiB). A node that
// commits a handful of entries allocates a few small chunks, and a long run
// starts a chunk no more often than once every 4,096 entries.
const (
	logChunkMin     = 16
	logChunkSteps   = 8
	logChunkMax     = logChunkMin << logChunkSteps
	logChunkDoubled = logChunkMin * (1<<logChunkSteps - 1) // entries in the doubling chunks
)

// entryLog is a node's replicated log, indexed from 0 like a slice (the
// protocol's entry idx sits at idx-1). Its entries live in chunks that are
// allocated at full length and never copied: growing the log writes each
// entry once, and cut keeps the chunks for the entries that replace the
// ones it drops.
type entryLog struct {
	chunks [][]entryRec
	n      int
}

// len returns the number of entries.
func (l *entryLog) len() int { return l.n }

// at returns the entry at position i. Like a slice index, it panics unless
// 0 <= i < len(): a position past the end may name a zeroed or stale entry
// in a chunk kept by cut.
//
//rfp:hotpath
func (l *entryLog) at(i int) *entryRec {
	if uint(i) >= uint(l.n) {
		//rfpvet:allow hotpathalloc out-of-range panic, terminal for the run
		panic("replica: entryLog index out of range")
	}
	c, off := locate(i)
	return &l.chunks[c][off]
}

// append adds e at position len().
//
//rfp:hotpath
func (l *entryLog) append(e entryRec) {
	c, off := locate(l.n)
	if c == len(l.chunks) {
		l.grow()
	}
	l.chunks[c][off] = e
	l.n++
}

// grow allocates the next chunk.
func (l *entryLog) grow() {
	size := logChunkMax
	if c := len(l.chunks); c < logChunkSteps {
		size = logChunkMin << c
	}
	l.chunks = append(l.chunks, make([]entryRec, size))
}

// cut shortens the log to n entries. The dropped entries are zeroed, so a
// truncated entry's value is not kept alive by the log.
func (l *entryLog) cut(n int) {
	for i := n; i < l.n; i++ {
		*l.at(i) = entryRec{}
	}
	l.n = n
}

// locate returns the chunk holding position i and i's offset within it.
func locate(i int) (c, off int) {
	if i < logChunkDoubled {
		c = bits.Len(uint(i/logChunkMin+1)) - 1
		return c, i - logChunkMin*(1<<c-1)
	}
	i -= logChunkDoubled
	return logChunkSteps + i/logChunkMax, i % logChunkMax
}
