package core

// This file implements malloc_buf/free_buf from the paper's Table 2: an
// allocator over an RNIC-registered memory region, so messages can be
// staged directly in RDMA-transferable memory without per-call
// registration. It is a simple first-fit free-list allocator with
// coalescing — adequate for the fixed small set of per-connection buffers
// RFP applications use.

import (
	"errors"
	"sort"

	"rfp/internal/rnic"
)

// ErrNoSpace is returned when the registered region cannot satisfy an
// allocation.
var ErrNoSpace = errors.New("core: registered region exhausted")

// ErrNotAllocated is returned when freeing a buffer that was not handed out
// by this allocator (or was already freed).
var ErrNotAllocated = errors.New("core: buffer not allocated from this region")

const allocAlign = 64 // cache-line alignment, as the paper's slots use

// BufAllocator hands out sub-slices of one registered memory region.
type BufAllocator struct {
	mr    *rnic.MR
	free  []span      // sorted by offset, coalesced
	alloc map[int]int // offset -> length of live allocations
}

type span struct{ off, len int }

// NewBufAllocator registers a region of the given size on nic and returns
// an allocator over it.
func NewBufAllocator(nic *rnic.NIC, size int) *BufAllocator {
	mr := nic.RegisterMemory(size)
	return &BufAllocator{
		mr:    mr,
		free:  []span{{0, size}},
		alloc: make(map[int]int),
	}
}

// MallocBuf allocates a registered buffer of at least size bytes
// (malloc_buf in the paper's API).
func (a *BufAllocator) MallocBuf(size int) ([]byte, error) {
	if size <= 0 {
		return nil, ErrNoSpace
	}
	need := (size + allocAlign - 1) / allocAlign * allocAlign
	for i, s := range a.free {
		if s.len >= need {
			a.alloc[s.off] = need
			buf := a.mr.Buf[s.off : s.off+size : s.off+need]
			if s.len == need {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{s.off + need, s.len - need}
			}
			return buf, nil
		}
	}
	return nil, ErrNoSpace
}

// FreeBuf returns a buffer previously obtained from MallocBuf to the free
// list (free_buf in the paper's API).
func (a *BufAllocator) FreeBuf(buf []byte) error {
	off, ok := a.offsetOf(buf)
	if !ok {
		return ErrNotAllocated
	}
	length, ok := a.alloc[off]
	if !ok {
		return ErrNotAllocated
	}
	delete(a.alloc, off)
	a.free = append(a.free, span{off, length})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].off < a.free[j].off })
	// Coalesce adjacent spans.
	out := a.free[:1]
	for _, s := range a.free[1:] {
		last := &out[len(out)-1]
		if last.off+last.len == s.off {
			last.len += s.len
		} else {
			out = append(out, s)
		}
	}
	a.free = out
	return nil
}

// Offset returns the buffer's offset within the backing region, for use as
// an RDMA target address.
func (a *BufAllocator) Offset(buf []byte) (int, bool) { return a.offsetOf(buf) }

func (a *BufAllocator) offsetOf(buf []byte) (int, bool) {
	if len(buf) == 0 || len(a.mr.Buf) == 0 {
		return 0, false
	}
	// Identify the sub-slice by pointer arithmetic on the backing array.
	for off := range a.alloc {
		if &a.mr.Buf[off] == &buf[0] {
			return off, true
		}
	}
	return 0, false
}

// FreeBytes reports the total bytes currently free (after alignment).
func (a *BufAllocator) FreeBytes() int {
	total := 0
	for _, s := range a.free {
		total += s.len
	}
	return total
}

// LiveAllocs reports the number of outstanding allocations.
func (a *BufAllocator) LiveAllocs() int { return len(a.alloc) }
