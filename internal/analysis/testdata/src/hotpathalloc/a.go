// Package hotpathalloc is golden testdata for the hotpathalloc analyzer:
// functions annotated //rfp:hotpath must not heap-allocate. Unannotated
// functions allocate freely; inside an annotated body the analyzer flags
// make/new, map and slice literals, escaping &T{} literals, non-scratch
// append, map growth, fmt calls, interface conversions, copying string
// conversions, escaping closures, and front re-slices of persistent state.
package hotpathalloc

import "fmt"

type wr struct{ id uint64 }

type conn struct {
	wrs   []wr
	stats map[string]int
}

// cold is unannotated: allocation is its own business.
func cold(n int) []byte {
	return make([]byte, n)
}

//rfp:hotpath
func badMake(n int) []byte {
	return make([]byte, n) // want `hot-path function badMake allocates: make`
}

//rfp:hotpath
func badNew() *wr {
	return new(wr) // want `hot-path function badNew allocates: new`
}

//rfp:hotpath
func badSliceLit() []int {
	return []int{1, 2, 3} // want `slice literal`
}

//rfp:hotpath
func badMapLit() map[string]int {
	return map[string]int{} // want `map literal`
}

//rfp:hotpath
func badEscape() *wr {
	w := &wr{id: 1} // want `&wr literal escapes`
	return w
}

// okLocalPtr: an address-taken literal that never leaves the frame stays on
// the stack.
//
//rfp:hotpath
func okLocalPtr() uint64 {
	w := &wr{id: 1}
	return w.id
}

//rfp:hotpath
func badFmt(n int) error {
	return fmt.Errorf("boom %d", n) // want `fmt.Errorf call`
}

// suppressedFmt documents a deliberate error-path allocation.
//
//rfp:hotpath
func suppressedFmt(n int) error {
	//rfpvet:allow hotpathalloc error path, never taken by well-formed callers
	return fmt.Errorf("boom %d", n)
}

//rfp:hotpath
func badAppend(x wr) []wr {
	var wrs []wr
	wrs = append(wrs, x) // want `append to non-persistent slice`
	return wrs
}

// okScratchAppend is the sanctioned amortized idiom: reuse through the
// receiver, truncated before refilling.
//
//rfp:hotpath
func (c *conn) okScratchAppend(x wr) {
	c.wrs = append(c.wrs[:0], x)
}

// badPopFront is the pop-front FIFO: each line is legal on its own (the
// append is to persistent state), but the re-slice gives the popped
// element's capacity away, so the append reallocates over and over.
//
//rfp:hotpath
func (c *conn) badPopFront(x wr) wr {
	c.wrs = append(c.wrs, x)
	head := c.wrs[0]
	c.wrs = c.wrs[1:] // want `front re-slice of c.wrs gives the capacity away`
	return head
}

// okTruncate: [:0] keeps the capacity — the sanctioned reset.
//
//rfp:hotpath
func (c *conn) okTruncate() {
	c.wrs = c.wrs[:0]
}

// okLocalReslice: advancing a local view allocates nothing and loses nothing.
//
//rfp:hotpath
func (c *conn) okLocalReslice() (sum uint64) {
	view := c.wrs
	for len(view) > 0 {
		sum += view[0].id
		view = view[1:]
	}
	return sum
}

//rfp:hotpath
func (c *conn) badMapStore(k string) {
	c.stats[k] = 1 // want `map assignment may grow the table`
}

//rfp:hotpath
func badStringConv(b []byte) string {
	return string(b) // want `copying string conversion`
}

//rfp:hotpath
func badBytesConv(s string) []byte {
	return []byte(s) // want `copying string conversion`
}

// sink is an unannotated helper with an interface parameter.
func sink(v interface{}) {}

//rfp:hotpath
func badIfaceArg(x wr) {
	sink(x) // want `argument .* converts to interface`
}

//rfp:hotpath
func badIfaceAssign(x wr) {
	var v interface{}
	v = x // want `assignment converts .* to interface`
	_ = v
}

//rfp:hotpath
func badGoClosure() {
	go func() {}() // want `go closure`
}

// okDeferClosure: deferred literals are open-coded by the compiler.
//
//rfp:hotpath
func okDeferClosure() {
	defer func() {}()
}

// okLocalClosure: bound to a local and only invoked, the literal stays on
// the stack.
//
//rfp:hotpath
func okLocalClosure(n int) int {
	f := func(x int) int { return x + 1 }
	return f(n)
}

//rfp:hotpath
func badEscapingClosure(run func(func())) {
	run(func() {}) // want `function literal escapes as a call argument`
}
