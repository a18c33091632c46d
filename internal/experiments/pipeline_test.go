package experiments

import (
	"testing"
)

// TestExtPipelineSpeedup checks the extension's acceptance bar: a depth-8
// ring lifts single-thread GET throughput at least 2x over depth 1 (the
// quick sweep measures exactly these two depths).
func TestExtPipelineSpeedup(t *testing.T) {
	r := archived(t, "ext-pipeline")
	s := r.Series[0]
	if len(s.X) != 2 || s.X[0] != 1 || s.X[1] != 8 {
		t.Fatalf("quick depths = %v, want [1 8]", s.X)
	}
	d1, d8 := s.Y[0], s.Y[1]
	if d1 <= 0 {
		t.Fatalf("depth-1 throughput %.3f", d1)
	}
	if d8 < 2*d1 {
		t.Fatalf("depth 8 %.3f MOPS vs depth 1 %.3f MOPS: speedup %.2fx < 2x", d8, d1, d8/d1)
	}
}

// TestExtPipelineDeterminism runs the depth sweep twice at the same seed;
// the pipelined Post/Poll machinery (CQ draining, doorbell batches,
// slot scheduling) must not introduce any run-to-run divergence.
func TestExtPipelineDeterminism(t *testing.T) {
	assertReplays(t, "ext-pipeline")
}
