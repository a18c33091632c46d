package experiments

import "testing"

// TestReplicaReadScaling pins ext-replica's headline claims, with margin so a
// serve-path or lease regression that collapses reads onto the leader fails
// loudly: local reads scale at least 2.5x from 1 to 4 followers, local reads
// at the largest group beat leader-only reads by at least 2x, and leader-only
// reads stay flat (within 10%) as followers are added.
func TestReplicaReadScaling(t *testing.T) {
	res := archived(t, "ext-replica")
	if len(res.Series) != 2 {
		t.Fatalf("series count = %d", len(res.Series))
	}
	local, leader := res.Series[0], res.Series[1]
	last := len(local.Y) - 1
	if scale := local.Y[last] / local.Y[0]; scale < 2.5 {
		t.Errorf("local-read scaling 1 -> %g followers = %.2fx, want >= 2.5x",
			local.X[last], scale)
	}
	if adv := local.Y[last] / leader.Y[last]; adv < 2.0 {
		t.Errorf("local vs leader reads at %g followers = %.2fx, want >= 2x",
			local.X[last], adv)
	}
	lo, hi := leader.Y[0], leader.Y[0]
	for _, y := range leader.Y {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	if hi/lo > 1.1 {
		t.Errorf("leader-only reads not flat: min %.2f max %.2f MOPS", lo, hi)
	}
}
