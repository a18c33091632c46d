package experiments

import (
	"strings"
	"testing"
)

// TestExtAdaptiveDepthConverges checks the extension's acceptance bar: the
// depth tuner's on-line selection lands within one doubling step of the
// best static depth both before and after the mid-run process-time shift,
// and the shift itself is visible in the depth trace.
func TestExtAdaptiveDepthConverges(t *testing.T) {
	o := archiveOpts()
	depths := o.pick(nil, []int{1, 2, 4, 8})
	light := &statsSweep{depths: depths}
	heavy := &statsSweep{depths: depths}
	for _, d := range depths {
		lv, _ := runPipelineDepth(o.withDefaults(), d, 32, adaptiveLightNs)
		light.mops = append(light.mops, lv)
		hv, _ := runPipelineDepth(o.withDefaults(), d, 32, adaptiveHeavyNs)
		heavy.mops = append(heavy.mops, hv)
	}
	bestLight := bestStaticDepth(depths, light.mops)
	bestHeavy := bestStaticDepth(depths, heavy.mops)

	ad := runAdaptiveDepth(o.withDefaults(), 32)
	if !withinOneStep(ad.preDepth, bestLight) {
		t.Fatalf("pre-shift adaptive depth %d not within one step of best static %d (sweep %v)",
			ad.preDepth, bestLight, light.mops)
	}
	if !withinOneStep(ad.postDepth, bestHeavy) {
		t.Fatalf("post-shift adaptive depth %d not within one step of best static %d (sweep %v)",
			ad.postDepth, bestHeavy, heavy.mops)
	}
	// The shift must show up in the trace: the tuner moves off the depth-1
	// start, and the post-shift depth differs from the pre-shift one.
	if ad.preDepth <= 1 {
		t.Fatalf("tuner never climbed off the depth-1 start (pre-shift depth %d)", ad.preDepth)
	}
	if ad.postDepth == ad.preDepth {
		t.Fatalf("depth trace shows no transition: %d before and after the shift", ad.preDepth)
	}
	if len(ad.trace.Y) == 0 {
		t.Fatal("empty depth trace")
	}
}

// statsSweep pairs a depth grid with its measured throughput.
type statsSweep struct {
	depths []int
	mops   []float64
}

// TestExtAdaptiveDepthRows checks the rendered result carries both the
// static reference and the adaptive selection (what rfpbench -json emits).
func TestExtAdaptiveDepthRows(t *testing.T) {
	r := archived(t, "ext-adaptive-depth")
	out := r.String()
	for _, want := range []string{"best static depth", "adaptive depth", "ring depth", "note:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered result missing %q:\n%s", want, out)
		}
	}
	if len(r.Series) == 0 || len(r.Series[0].Y) == 0 {
		t.Fatal("missing depth-over-time series")
	}
}

// TestExtAdaptiveDepthDeterminism runs the adaptive experiment twice at the
// same seed; the control plane (sampling, re-selection, quiesce-resize)
// must not introduce run-to-run divergence.
func TestExtAdaptiveDepthDeterminism(t *testing.T) {
	assertReplays(t, "ext-adaptive-depth")
}

// withinOneStep reports whether the adaptive depth d lands within one
// doubling step of the static reference (the sweep's grid spacing).
func withinOneStep(d, ref int) bool {
	return 2*d >= ref && d <= 2*ref
}
