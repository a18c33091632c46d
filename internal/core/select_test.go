package core

import (
	"testing"

	"rfp/internal/hw"
)

func TestCalibrateBounds(t *testing.T) {
	cal := Calibrate(hw.ConnectX3(), 16)
	if cal.L != 256 || cal.H != 1024 {
		t.Fatalf("L,H = %d,%d, want 256,1024 (paper Sec. 3.2)", cal.L, cal.H)
	}
	if cal.N != 5 {
		t.Fatalf("N = %d, want 5 (paper's choice for this hardware)", cal.N)
	}
	if cal.ReadRTTNs < 1200 || cal.ReadRTTNs > 2000 {
		t.Fatalf("ReadRTTNs = %d, want ~1.5us", cal.ReadRTTNs)
	}
}

func TestCalibrateDefaultThreads(t *testing.T) {
	cal := Calibrate(hw.ConnectX3(), 0)
	if cal.N != 5 {
		t.Fatalf("N = %d with default (16-core) threads", cal.N)
	}
}

func TestSelectFSmallValues(t *testing.T) {
	// 32-byte values: any F in [L,H] covers them; the smallest wins because
	// it wastes the least bandwidth. The paper pre-runs the 32-byte
	// workload and selects F = 256.
	cal := Calibrate(hw.ConnectX3(), 16)
	sizes := make([]int, 100)
	for i := range sizes {
		sizes[i] = 32
	}
	if f := SelectF(cal, sizes); f != 256 {
		t.Fatalf("SelectF(32B) = %d, want 256", f)
	}
}

func TestSelectFMixedSizes(t *testing.T) {
	// With results spread up to 640 bytes, a mid-range F that avoids most
	// second reads beats both extremes (paper Fig. 18: F = 640 best for the
	// 32..8192 sweep; our grid is 64-byte-stepped so anything in the
	// 512-768 region is faithful).
	cal := Calibrate(hw.ConnectX3(), 16)
	var sizes []int
	for s := 32; s <= 8192; s *= 2 {
		for i := 0; i < 10; i++ {
			sizes = append(sizes, s)
		}
	}
	f := SelectF(cal, sizes)
	if f < 320 || f > 1024 {
		t.Fatalf("SelectF(mixed) = %d, want interior of [L,H]", f)
	}
	// It must beat the endpoints under the same cost model.
	costOf := func(ff int) float64 {
		var c float64
		for _, s := range sizes {
			c += float64(ReadCostNs(cal.Prof, ff))
			if HeaderSize+s > ff {
				c += float64(ReadCostNs(cal.Prof, HeaderSize+s-ff))
			}
		}
		return c
	}
	if costOf(f) > costOf(cal.L) || costOf(f) > costOf(cal.H) {
		t.Fatalf("selected F=%d not optimal vs endpoints", f)
	}
}

func TestSelectFEmptySamples(t *testing.T) {
	cal := Calibrate(hw.ConnectX3(), 16)
	if f := SelectF(cal, nil); f != cal.L {
		t.Fatalf("SelectF(empty) = %d, want L", f)
	}
}

func TestSelectRTypicalWorkload(t *testing.T) {
	cal := Calibrate(hw.ConnectX3(), 16)
	// Mostly sub-microsecond process times with a rare 10us tail, like the
	// paper's KV workloads: the 99.8th percentile (~10us) spans ~5 fetch
	// RTTs, so R = N = 5.
	times := make([]int64, 1000)
	for i := range times {
		times[i] = 500
	}
	for i := 0; i < 5; i++ {
		times[i*200] = 10_000
	}
	if r := SelectR(cal, times); r != cal.N {
		t.Fatalf("SelectR = %d, want N=%d", r, cal.N)
	}
}

func TestSelectRFastServer(t *testing.T) {
	cal := Calibrate(hw.ConnectX3(), 16)
	times := make([]int64, 100)
	for i := range times {
		times[i] = 300
	}
	r := SelectR(cal, times)
	if r < 1 || r > 2 {
		t.Fatalf("SelectR(fast) = %d, want small", r)
	}
}

func TestSelectREmpty(t *testing.T) {
	cal := Calibrate(hw.ConnectX3(), 16)
	if r := SelectR(cal, nil); r != cal.N {
		t.Fatalf("SelectR(empty) = %d, want N", r)
	}
}

func TestEq2IOPSDecaysWithF(t *testing.T) {
	prof := hw.ConnectX3()
	if InboundIOPS(prof, 2048) >= InboundIOPS(prof, 256) {
		t.Fatal("I_F should decay for bandwidth-bound sizes")
	}
	if InboundIOPS(prof, 64) != InboundIOPS(prof, 128) {
		t.Fatal("I_F should be flat in the engine-bound range")
	}
}

func TestSelectEndToEnd(t *testing.T) {
	sizes := make([]int, 200)
	times := make([]int64, 200)
	for i := range sizes {
		sizes[i] = 32
		times[i] = 400
	}
	r, f := Select(hw.ConnectX3(), 16, sizes, times)
	if f != 256 {
		t.Fatalf("F = %d", f)
	}
	if r < 1 || r > 5 {
		t.Fatalf("R = %d", r)
	}
}

func TestSamplerRing(t *testing.T) {
	s := NewSampler(8)
	for i := 0; i < 100; i++ {
		s.Observe(i, int64(i))
	}
	if len(s.Sizes) != 8 || len(s.ProcTimes) != 8 {
		t.Fatalf("sampler grew beyond cap: %d", len(s.Sizes))
	}
	// The window must hold the most recent observations (92..99), not a
	// stale prefix — regression for the ring-cursor bug.
	for _, v := range s.Sizes {
		if v < 92 {
			t.Fatalf("stale sample %d survived 100 observations into a cap-8 window", v)
		}
	}
}

func TestSamplerTurnoverEvenWithZeroProcTimes(t *testing.T) {
	s := NewSampler(4)
	for i := 0; i < 20; i++ {
		s.Observe(i, 0) // fast calls report ~0 us process time
	}
	sum := 0
	for _, v := range s.Sizes {
		sum += v
	}
	if sum != 16+17+18+19 {
		t.Fatalf("window = %v, want the last four observations", s.Sizes)
	}
}

func TestSamplerDefaultCap(t *testing.T) {
	s := NewSampler(0)
	s.Observe(1, 1)
	if len(s.Sizes) != 1 {
		t.Fatal("observe")
	}
}
