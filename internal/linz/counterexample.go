package linz

// Counterexample minimization: a failing partition history is shrunk by
// greedy op removal to a fixpoint — the history stays Illegal after every
// removal, and no further single removal keeps it Illegal. One refinement
// over plain 1-minimality keeps the result diagnostic: a write observed by
// a retained read is never a removal candidate. Without it the minimizer
// degenerates — dropping a read's writer leaves the read dangling, which is
// Illegal on its own, so every counterexample would collapse to one
// unexplained read. With it, every read in the core keeps its
// justification, and unread writes (and their readers, probed first in
// canonical order) still fall away.

// minimize shrinks cur (one partition in canonical order, known Illegal) to
// a minimal Illegal sub-history under the same initial state, reusing c's
// buffers for every probe. Deterministic: removal candidates are probed in
// the partition's canonical order, and a probe, being a subsequence, is in
// canonical order too. budget bounds each single-removal probe individually
// (the caller derives it from the original failing check's node count); a
// probe that exhausts it returns Unknown, which keeps the op — minimality
// may be lost, never soundness.
func (c *checker) minimize(cur History, init regState, budget int64) History {
	observed := func(h History) map[uint32]bool {
		m := map[uint32]bool{}
		for _, o := range h {
			if o.Kind == Read && o.Found {
				m[o.Out] = true
			}
		}
		return m
	}
	for {
		shrunk := false
		reads := observed(cur)
		for i := 0; i < len(cur); i++ {
			if cur[i].Kind == Write && reads[cur[i].Arg] {
				continue
			}
			probe := make(History, 0, len(cur)-1)
			probe = append(probe, cur[:i]...)
			probe = append(probe, cur[i+1:]...)
			if v, _ := c.check(probe, init, budget); v == Illegal {
				cur = probe
				shrunk = true
				i--
			}
		}
		if !shrunk {
			return cur
		}
	}
}
