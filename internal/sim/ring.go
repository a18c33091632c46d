package sim

// Ring is the FIFO behind every queue in the kernel and the layers above it:
// a circular buffer over a power-of-two backing array. A pop-front slice
// (s = s[1:]) gives its capacity away one element at a time, so the append
// that follows must reallocate; resetting a head index only when the queue
// drains is no better for a queue that never drains (a saturated engine's
// waiter list, a pipelined QP's pending work requests). A ring reuses the
// slot a Pop vacates on the next lap whether or not it ever runs empty, so
// its capacity is bounded by the deepest the queue has been — it grows by
// doubling and never shrinks — and steady state allocates nothing.
//
// The zero value is an empty ring. Vacated slots are zeroed, so a popped
// element's pointers are not kept alive by the backing array.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int
}

// ringMinCap is the first backing array's size.
const ringMinCap = 4

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the backing array's size: the depth the ring holds without
// growing.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the tail.
//
//rfp:hotpath
func (r *Ring[T]) Push(v T) {
	if r.n == r.Cap() {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest element. The ring must not be empty.
//
//rfp:hotpath
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panicEmptyRing()
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles a full ring, unwrapping it to the front of the new array.
func (r *Ring[T]) grow() {
	buf := make([]T, max(ringMinCap, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

func panicEmptyRing() { panic("sim: Pop from an empty Ring") }
