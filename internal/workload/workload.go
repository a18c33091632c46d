// Package workload generates YCSB-like key-value workloads: uniform or
// Zipf-distributed key popularity, configurable GET/PUT mixes and value-size
// distributions. The defaults mirror the paper's evaluation setup: 16-byte
// keys, 32-byte values ("the value size of more than half of key-value pairs
// in Facebook's data center is around 20 bytes"), uniform and read-intensive
// (95% GET) unless stated otherwise, with the skewed variant drawn from a
// Zipf distribution with parameter 0.99.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"rfp/internal/dist"
)

// KeySize is the fixed key length used throughout the evaluation.
const KeySize = 16

// OpKind distinguishes reads from writes.
type OpKind uint8

// Operation kinds.
const (
	Get OpKind = iota
	Put
	ReadModifyWrite // read the value, then write an updated one (YCSB-F)
)

func (k OpKind) String() string {
	switch k {
	case Get:
		return "GET"
	case Put:
		return "PUT"
	default:
		return "RMW"
	}
}

// Op is one generated operation.
type Op struct {
	Kind      OpKind
	Key       uint64
	ValueSize int // for Put: payload length
}

// Config parameterizes a workload.
type Config struct {
	// Keys is the key-space cardinality.
	Keys int
	// GetFraction is the probability of a GET (0.95 = read-intensive,
	// 0.05 = write-intensive in the paper's terminology).
	GetFraction float64
	// RMWFraction is the probability of a read-modify-write; the remainder
	// after GETs and RMWs is plain PUTs.
	RMWFraction float64
	// ZipfTheta > 0 selects skewed popularity with the given theta
	// (0.99 in the paper); 0 selects uniform.
	ZipfTheta float64
	// KeyOffset rotates the drawn key index by this much (mod Keys). The
	// popularity distribution ranks keys from most to least popular, so a
	// nonzero offset relocates the hot set without changing its shape —
	// the knob behind hot-key-migration phases: two phases with the same
	// ZipfTheta but different offsets hammer disjoint hot keys.
	KeyOffset uint64
	// ValueSize draws PUT payload sizes. Defaults to fixed 32 bytes.
	ValueSize dist.IntDist
}

// DefaultConfig is the paper's base workload: 1M uniformly popular keys,
// 95% GET, fixed 32-byte values. (The paper preloads 128M pairs; the
// simulated store scales the key space down so tests stay RAM-friendly —
// popularity structure, not cardinality, is what the results depend on.)
func DefaultConfig() Config {
	return Config{Keys: 1 << 20, GetFraction: 0.95, ValueSize: dist.Fixed(32)}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Keys <= 0 {
		c.Keys = d.Keys
	}
	if c.ValueSize == nil {
		c.ValueSize = d.ValueSize
	}
	if c.GetFraction < 0 {
		c.GetFraction = 0
	}
	if c.GetFraction > 1 {
		c.GetFraction = 1
	}
	if c.RMWFraction < 0 {
		c.RMWFraction = 0
	}
	if c.GetFraction+c.RMWFraction > 1 {
		c.RMWFraction = 1 - c.GetFraction
	}
	return c
}

// YCSB returns the configuration of a core YCSB workload over the given
// key space: 'A' (50% read / 50% update), 'B' (95/5), 'C' (read-only) and
// 'F' (50% read / 50% read-modify-write), all with Zipf(.99) popularity as
// in the benchmark's standard definitions. Workloads D and E need a
// growing key space / scans, which the stores here do not model.
func YCSB(preset byte, keys int) (Config, error) {
	c := Config{Keys: keys, ZipfTheta: 0.99}
	switch preset {
	case 'A', 'a':
		c.GetFraction = 0.5
	case 'B', 'b':
		c.GetFraction = 0.95
	case 'C', 'c':
		c.GetFraction = 1
	case 'F', 'f':
		c.GetFraction = 0.5
		c.RMWFraction = 0.5
	default:
		return Config{}, fmt.Errorf("workload: unknown YCSB preset %q (have A, B, C, F)", preset)
	}
	return c, nil
}

// Generator produces a deterministic operation stream for one client
// thread.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	keys dist.IntDist
}

// NewGenerator builds a generator with its own seeded source, so parallel
// client threads generate independent, reproducible streams.
func NewGenerator(cfg Config, seed int64) *Generator {
	g := &Generator{}
	g.Reset(cfg, seed)
	return g
}

// Reset re-arms the generator for a new workload phase: the configuration
// is replaced and the random source is re-seeded in place. The stream after
// Reset is exactly the stream a fresh NewGenerator(cfg, seed) would
// produce — no PRNG state leaks across a phase boundary, regardless of how
// many operations the previous phase drew. (A long-lived per-thread
// generator can therefore be re-seeded at every phase boundary and stay
// reproducible phase by phase.)
//
// The key distribution depends on (Keys, ZipfTheta) alone and never changes
// once built, so a phase that keeps both keeps it: building a Zipf sums its
// normalization over every key.
func (g *Generator) Reset(cfg Config, seed int64) {
	cfg = cfg.withDefaults()
	if g.keys == nil || cfg.Keys != g.cfg.Keys || cfg.ZipfTheta != g.cfg.ZipfTheta {
		if cfg.ZipfTheta > 0 {
			g.keys = dist.NewZipf(cfg.ZipfTheta, cfg.Keys)
		} else {
			g.keys = dist.Uniform{Lo: 0, Hi: cfg.Keys - 1}
		}
	}
	g.cfg = cfg
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(seed))
	} else {
		g.rng.Seed(seed) // a new source would be 4.9 KB per (phase, thread)
	}
}

// Fork returns a generator for another client thread of the same workload:
// exactly the stream NewGenerator(cfg, seed) would produce, sharing g's key
// distribution instead of building its own. Fork only reads g, so threads
// may fork one generator concurrently.
func (g *Generator) Fork(seed int64) *Generator {
	return &Generator{cfg: g.cfg, rng: rand.New(rand.NewSource(seed)), keys: g.keys}
}

// Rand exposes the generator's random source (e.g. for auxiliary sampling
// that must stay in sync with the stream).
func (g *Generator) Rand() *rand.Rand { return g.rng }

// Next draws the next operation.
func (g *Generator) Next() Op {
	key := uint64(g.keys.Next(g.rng))
	if g.cfg.KeyOffset > 0 {
		key = (key + g.cfg.KeyOffset) % uint64(g.cfg.Keys)
	}
	op := Op{Key: key}
	u := g.rng.Float64()
	switch {
	case u < g.cfg.GetFraction:
		op.Kind = Get
	case u < g.cfg.GetFraction+g.cfg.RMWFraction:
		op.Kind = ReadModifyWrite
		op.ValueSize = g.cfg.ValueSize.Next(g.rng)
	default:
		op.Kind = Put
		op.ValueSize = g.cfg.ValueSize.Next(g.rng)
	}
	return op
}

// EncodeKey writes the canonical 16-byte representation of key into buf
// (which must be at least KeySize long) and returns buf[:KeySize].
func EncodeKey(buf []byte, key uint64) []byte {
	binary.LittleEndian.PutUint64(buf[0:8], key)
	binary.LittleEndian.PutUint64(buf[8:16], key^0x9E3779B97F4A7C15) // fill, keeps keys 16B
	return buf[:KeySize]
}

// DecodeKey recovers the key index from its canonical encoding.
func DecodeKey(buf []byte) uint64 {
	return binary.LittleEndian.Uint64(buf[0:8])
}

// FillValue fills buf with a value deterministically derived from (key,
// version), so stores can verify end-to-end integrity of GET results.
func FillValue(buf []byte, key uint64, version uint32) {
	seed := key*0x9E3779B97F4A7C15 + uint64(version)*0xBF58476D1CE4E5B9
	for i := range buf {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		buf[i] = byte(seed)
	}
}

// CheckValue reports whether buf matches FillValue(key, version).
func CheckValue(buf []byte, key uint64, version uint32) bool {
	want := make([]byte, len(buf))
	FillValue(want, key, version)
	for i := range buf {
		if buf[i] != want[i] {
			return false
		}
	}
	return true
}

// FillVersioned fills buf with a self-describing versioned value: the first
// four bytes carry version little-endian, the rest is a deterministic
// pattern derived from (key, version). Unlike FillValue, the version is
// recoverable from the bytes alone — the linearizability harness needs to
// know *which* write a GET observed, not just that some write's bytes are
// intact. buf must be at least VersionedMin bytes.
func FillVersioned(buf []byte, key uint64, version uint32) {
	_ = buf[VersionedMin-1]
	binary.LittleEndian.PutUint32(buf[0:4], version)
	seed := key*0xD6E8FEB86659FD93 + uint64(version)*0xCA5A826395121157 + 1
	for i := 4; i < len(buf); i++ {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		buf[i] = byte(seed)
	}
}

// VersionedMin is the minimum length of a versioned value (the version
// field itself).
const VersionedMin = 4

// ParseVersioned recovers the version from a FillVersioned value and
// verifies the trailing pattern against (key, version). ok=false reports a
// torn or corrupt value (or one produced by a different fill scheme).
func ParseVersioned(buf []byte, key uint64) (version uint32, ok bool) {
	if len(buf) < VersionedMin {
		return 0, false
	}
	version = binary.LittleEndian.Uint32(buf[0:4])
	seed := key*0xD6E8FEB86659FD93 + uint64(version)*0xCA5A826395121157 + 1
	for i := 4; i < len(buf); i++ {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		if buf[i] != byte(seed) {
			return version, false
		}
	}
	return version, true
}

// RampOffset staggers thread activation across a ramp window: thread i of
// threads becomes active rampNs*i/threads after the window opens, so a
// phase's client population grows linearly instead of arriving as one
// thundering herd. Thread 0 starts immediately; offsets are deterministic
// in (i, threads, rampNs) only.
func RampOffset(i, threads int, rampNs int64) int64 {
	if threads <= 1 || rampNs <= 0 || i <= 0 {
		return 0
	}
	return rampNs * int64(i) / int64(threads)
}

// Preload returns every key index once, for store warm-up.
func Preload(cfg Config) []uint64 {
	cfg = cfg.withDefaults()
	keys := make([]uint64, cfg.Keys)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}
