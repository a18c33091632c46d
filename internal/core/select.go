package core

// Parameter selection (paper Sec. 3.2). The paper reduces both challenges —
// when to stop fetching (R) and how much to fetch (F) — to a bounded
// enumeration: hardware limits give R ∈ [1, N] and F ∈ [L, H], and
// application samples (result sizes, process times) gathered by pre-running
// or periodic sampling pick the optimum inside those bounds.

import (
	"sort"

	"rfp/internal/hw"
)

// Calibration captures the hardware-derived bounds for parameter selection.
// It corresponds to the one-off micro-benchmark runs the paper requires
// ("L and H rely on hardware configuration, and can be gotten by running
// benchmark once").
type Calibration struct {
	Prof hw.Profile

	// L and H bound the useful fetch size F (Fig. 5's three ranges).
	L, H int

	// N bounds the retry threshold R: beyond N retries, repeated fetching
	// no longer beats server-reply enough to justify the client CPU burn.
	N int

	// ReadRTTNs is the uncontended latency of one small remote fetch.
	ReadRTTNs int64
}

// Calibrate derives the selection bounds for a profile and a server thread
// count.
//
// N comes from the Fig. 9 analysis: with T server threads, server-reply
// saturates at min(out-bound peak, T/P) requests per second. The crossover
// process time P* where server processing itself becomes the bottleneck is
// T divided by the out-bound peak (≈ 16/2.11 MOPS ≈ 7.6 us on the default
// profile). Beyond P*, fetching buys <10% while burning client CPU, so
// N = ceil(P* / readRTT) — 5 for the paper's hardware, matching its choice.
func Calibrate(prof hw.Profile, serverThreads int) Calibration {
	if serverThreads <= 0 {
		serverThreads = prof.Cores
	}
	l, h := prof.FetchBounds()
	rtt := ReadRTTNs(prof, 64)
	crossNs := float64(serverThreads) / prof.OutboundPeakMOPS(64) * 1000 // MOPS -> ns
	n := int((int64(crossNs) + rtt - 1) / rtt)
	if n < 1 {
		n = 1
	}
	return Calibration{Prof: prof, L: l, H: h, N: n, ReadRTTNs: rtt}
}

// ReadRTTNs returns the analytic uncontended round-trip time of one RDMA
// Read of size bytes: post, initiator engine, propagation out, responder
// service, payload serialization, propagation back, completion reap.
func ReadRTTNs(prof hw.Profile, size int) int64 {
	return prof.PostNs + prof.OutEngineNs + prof.PropagationNs +
		prof.InEngineNs + prof.ReadRespExtraNs + prof.WireNs(size) +
		prof.PropagationNs + prof.PollNs
}

// ReadCostNs returns the server-side occupancy of serving one in-bound read
// of the given total size — the quantity that bounds saturated throughput
// (the responder engine and the TX pipe work in parallel, so the slower of
// the two governs).
func ReadCostNs(prof hw.Profile, size int) int64 {
	c := prof.InEngineNs
	if w := prof.WireNs(size); w > c {
		c = w
	}
	return c
}

// InboundIOPS returns I_F — the in-bound read IOPS (MOPS) the server NIC
// sustains at fetch size F — the I_{R,F} term of the paper's Eq. 2 (R does
// not change the per-operation hardware cost; it changes how many
// operations a call needs).
func InboundIOPS(prof hw.Profile, f int) float64 {
	return 1e3 / float64(ReadCostNs(prof, f))
}

// SelectF enumerates F over [L, H] (64-byte steps, the paper's "simple
// enumeration") and returns the value minimizing the expected per-call
// fetch cost over the sampled result sizes. The cost model refines Eq. 2's
// I/2 term: a continuation read costs by its own size, so fetching 256
// bytes of an 8 KB result is not charged as if the whole result were
// re-read.
func SelectF(cal Calibration, sizes []int) int {
	if len(sizes) == 0 {
		return cal.L
	}
	bestF, bestCost := cal.L, 0.0
	for f := cal.L; f <= cal.H; f += 64 {
		var cost float64
		for _, s := range sizes {
			total := HeaderSize + s
			cost += float64(ReadCostNs(cal.Prof, f))
			if total > f {
				cost += float64(ReadCostNs(cal.Prof, total-f))
			}
		}
		if bestCost == 0 || cost < bestCost {
			bestF, bestCost = f, cost
		}
	}
	return bestF
}

// SelectR picks the retry threshold from sampled server process times: R
// must cover all but pathologically slow requests (those are what the
// K-consecutive guard absorbs), so it is the 99.8th-percentile process time
// expressed in fetch round trips, clamped to [1, N]. On the paper's
// hardware and workloads this lands on N = 5, the paper's choice.
func SelectR(cal Calibration, procTimesNs []int64) int {
	if len(procTimesNs) == 0 {
		return cal.N
	}
	s := append([]int64(nil), procTimesNs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q := s[int(0.998*float64(len(s)-1))]
	r := int((q + cal.ReadRTTNs - 1) / cal.ReadRTTNs)
	if r < 1 {
		r = 1
	}
	if r > cal.N {
		r = cal.N
	}
	return r
}

// Depth selection (the control plane's third knob, beyond the paper). The
// multi-slot request ring (DESIGN.md §8) overlaps whole calls: with D
// requests in flight, a call's round trip is amortized over D-1 neighbours,
// and throughput is bounded by whichever serial resource saturates first —
// the client's issue engine and CPU, or the server's per-request occupancy.
// Depth therefore reduces to the same hardware-bounded enumeration shape as
// Eq. 2: candidate depths are bounded by the ring capacity, and the sampled
// (result size, process time) window scores each candidate.

// pipeSerialNs models the pipeline's per-call serial cost at full depth:
// the time one more in-flight call adds, i.e. the reciprocal of the
// saturated rate. Three resources work in parallel, so the slowest governs:
//
//   - client NIC engine: one request Write plus (at least) one fetch Read
//     issue per call;
//   - client CPU: one post, one doorbell-batched fetch issue, and two
//     completion reaps;
//   - server CPU: slot pickup, the process time itself, and the two
//     header+payload copies (request consume, response publish).
func pipeSerialNs(prof hw.Profile, size int, procNs int64) float64 {
	engine := 2 * prof.OutEngineNs
	client := prof.PostNs + prof.PostBatchNs + 2*prof.PollNs
	server := procNs + prof.LocalPollNs + 2*prof.CopyNs(HeaderSize+size)
	c := engine
	if client > c {
		c = client
	}
	if server > c {
		c = server
	}
	return float64(c)
}

// pipeRTTNs models one call's unloaded round trip: request delivery, server
// pickup and processing, then the remote fetch (plus the continuation read
// when F does not cover the result — the same refinement SelectF applies to
// Eq. 2's I/2 term).
func pipeRTTNs(cal Calibration, f, size int, procNs int64) float64 {
	prof := cal.Prof
	deliver := prof.PostNs + prof.OutEngineNs + prof.WireNs(HeaderSize+size) +
		prof.PropagationNs + prof.InEngineNs
	pickup := prof.MemPollIntervalNs + procNs
	rtt := float64(deliver + pickup + ReadRTTNs(prof, f))
	if total := HeaderSize + size; total > f {
		rtt += float64(ReadRTTNs(prof, total-f))
	}
	return rtt
}

// DepthThroughput scores one candidate depth against the sample window:
// each sampled call completes in max(serial cost, RTT/D) — at depth D the
// round trip is overlapped with D-1 other calls — and the score is the
// reciprocal of the mean (calls per ns; only meaningful for comparison
// across D).
func DepthThroughput(cal Calibration, f, d int, sizes []int, procTimesNs []int64) float64 {
	if d < 1 || len(sizes) == 0 {
		return 0
	}
	var sum float64
	for i, s := range sizes {
		proc := int64(0)
		if i < len(procTimesNs) {
			proc = procTimesNs[i]
		}
		per := pipeRTTNs(cal, f, s, proc) / float64(d)
		if serial := pipeSerialNs(cal.Prof, s, proc); serial > per {
			per = serial
		}
		sum += per
	}
	return float64(len(sizes)) / sum
}

// SelectDepth enumerates Depth over [1, maxDepth] and returns the smallest
// depth whose modeled throughput is within 2% of the best candidate —
// deeper rings past the knee only add memory and occupancy, exactly as
// extra retries past N only burn client CPU. maxDepth is the ring capacity
// (Params.MaxDepth), the hardware-ish bound of this enumeration.
func SelectDepth(cal Calibration, f int, sizes []int, procTimesNs []int64, maxDepth int) int {
	if maxDepth < 1 {
		maxDepth = 1
	}
	if len(sizes) == 0 {
		return 1
	}
	best := 0.0
	for d := 1; d <= maxDepth; d++ {
		if t := DepthThroughput(cal, f, d, sizes, procTimesNs); t > best {
			best = t
		}
	}
	for d := 1; d <= maxDepth; d++ {
		if DepthThroughput(cal, f, d, sizes, procTimesNs) >= 0.98*best {
			return d
		}
	}
	return maxDepth
}

// Select runs the full Sec. 3.2 procedure: derive bounds from hardware,
// then pick (R, F) from application samples gathered by pre-running or
// on-line sampling. The enumeration considers (H-L)/64 * N candidates —
// "both N and H-L are small enough for a simple enumeration".
func Select(prof hw.Profile, serverThreads int, resultSizes []int, procTimesNs []int64) (r, f int) {
	cal := Calibrate(prof, serverThreads)
	return SelectR(cal, procTimesNs), SelectF(cal, resultSizes)
}

// Sampler collects result sizes and process times during a pre-run or
// on-line sampling window, to feed Select. Once full it overwrites oldest-
// first, so the window always reflects the most recent cap observations.
type Sampler struct {
	Sizes     []int
	ProcTimes []int64
	cap       int
	next      int
}

// NewSampler bounds the sample buffers to n entries each (ring overwrite).
func NewSampler(n int) *Sampler {
	if n <= 0 {
		n = 4096
	}
	return &Sampler{cap: n}
}

// Observe records one completed call's result size and process time.
func (s *Sampler) Observe(resultSize int, procNs int64) {
	if len(s.Sizes) < s.cap {
		s.Sizes = append(s.Sizes, resultSize)
		s.ProcTimes = append(s.ProcTimes, procNs)
		return
	}
	s.Sizes[s.next] = resultSize
	s.ProcTimes[s.next] = procNs
	s.next = (s.next + 1) % s.cap
}
