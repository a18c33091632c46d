// Package cuckoo implements the 3-way Cuckoo hash table that Pilaf-style
// server-bypass key-value stores expose to one-sided RDMA readers (paper
// Sec. 2.3, 4.3).
//
// The table lives in a flat byte region (normally an RDMA-registered memory
// region), with fixed 64-byte self-verifying slots: each slot carries a key
// fingerprint, the location of the key/value extent, a version, and a CRC64
// over the slot contents, so a remote client that RDMA-Reads a slot can
// detect torn or stale data without any server coordination — exactly the
// application-specific machinery RFP argues server-bypass forces on
// developers.
package cuckoo

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
)

// SlotSize is the fixed slot footprint: one cache line.
const SlotSize = 64

// Ways is the number of candidate slots per key (3-way cuckoo, as in
// Pilaf's memory-efficient design).
const Ways = 3

// MaxKicks bounds insertion displacement chains before the table reports
// ErrFull.
const MaxKicks = 500

// Errors.
var (
	ErrFull     = errors.New("cuckoo: displacement limit reached (table too full)")
	ErrBadSlot  = errors.New("cuckoo: slot CRC mismatch")
	ErrTooSmall = errors.New("cuckoo: buffer smaller than one slot")
)

var crcTab = crc64.MakeTable(crc64.ECMA)

// Entry is the payload a slot stores: where the key/value extent lives and
// how big it is.
type Entry struct {
	KeyFP   uint64 // key fingerprint (hash with an independent seed)
	DataOff uint64 // extent offset in the data region
	KeySize uint16
	ValSize uint32
	Version uint32 // bumped on update; lets readers detect concurrent writes
}

// Geometry describes a table so a remote client can compute candidate slots
// for itself; it is exchanged once at connection setup.
type Geometry struct {
	NumSlots int
	Seeds    [Ways]uint64
	FPSeed   uint64
}

// DefaultGeometry returns the geometry for a table over n slots.
func DefaultGeometry(n int) Geometry {
	return Geometry{
		NumSlots: n,
		Seeds:    [Ways]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9},
		FPSeed:   0x27D4EB2F165667C5,
	}
}

// NumSlotsFor returns a slot count that keeps the table at most fill-full
// for capacity keys (Pilaf evaluates at 75% fill).
func NumSlotsFor(capacity int, fill float64) int {
	if fill <= 0 || fill > 1 {
		fill = 0.75
	}
	n := int(float64(capacity)/fill) + Ways
	return n
}

// hashBytes is a simple splitmix-style byte hash, seeded.
func hashBytes(key []byte, seed uint64) uint64 {
	h := seed
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001B3
		h ^= h >> 29
	}
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// Candidates returns the Ways slot indices key may occupy.
func (g Geometry) Candidates(key []byte) [Ways]int {
	var out [Ways]int
	for i, s := range g.Seeds {
		out[i] = int(hashBytes(key, s) % uint64(g.NumSlots))
	}
	return out
}

// Fingerprint returns the key's slot fingerprint.
func (g Geometry) Fingerprint(key []byte) uint64 {
	fp := hashBytes(key, g.FPSeed)
	if fp == 0 {
		fp = 1 // 0 marks empty slots
	}
	return fp
}

// EncodeSlot serializes a live entry into buf[0:SlotSize] with its CRC.
func EncodeSlot(buf []byte, e Entry) {
	binary.LittleEndian.PutUint64(buf[0:8], e.KeyFP)
	binary.LittleEndian.PutUint64(buf[8:16], e.DataOff)
	binary.LittleEndian.PutUint32(buf[16:20], e.ValSize)
	binary.LittleEndian.PutUint16(buf[20:22], e.KeySize)
	binary.LittleEndian.PutUint16(buf[22:24], 1) // valid flag
	binary.LittleEndian.PutUint32(buf[24:28], e.Version)
	binary.LittleEndian.PutUint32(buf[28:32], 0)
	crc := crc64.Checksum(buf[0:32], crcTab)
	binary.LittleEndian.PutUint64(buf[32:40], crc)
	for i := 40; i < SlotSize; i++ {
		buf[i] = 0
	}
}

// ClearSlot marks buf[0:SlotSize] empty (with a valid CRC so readers can
// distinguish "empty" from "torn").
func ClearSlot(buf []byte) {
	for i := 0; i < 32; i++ {
		buf[i] = 0
	}
	crc := crc64.Checksum(buf[0:32], crcTab)
	binary.LittleEndian.PutUint64(buf[32:40], crc)
}

// DecodeSlot parses buf[0:SlotSize]. It returns ErrBadSlot when the CRC
// does not match (a torn read of a slot being rewritten), and ok=false for
// a consistent empty slot. This is exactly what a remote Pilaf client runs
// on RDMA-fetched bytes.
func DecodeSlot(buf []byte) (e Entry, ok bool, err error) {
	if len(buf) < SlotSize {
		return Entry{}, false, ErrTooSmall
	}
	crc := crc64.Checksum(buf[0:32], crcTab)
	if crc != binary.LittleEndian.Uint64(buf[32:40]) {
		return Entry{}, false, ErrBadSlot
	}
	if binary.LittleEndian.Uint16(buf[22:24]) == 0 {
		return Entry{}, false, nil
	}
	return Entry{
		KeyFP:   binary.LittleEndian.Uint64(buf[0:8]),
		DataOff: binary.LittleEndian.Uint64(buf[8:16]),
		ValSize: binary.LittleEndian.Uint32(buf[16:20]),
		KeySize: binary.LittleEndian.Uint16(buf[20:22]),
		Version: binary.LittleEndian.Uint32(buf[24:28]),
	}, true, nil
}

// Table is the server-side view: it owns the slot region and performs
// inserts with cuckoo displacement. Concurrent remote readers see
// every intermediate slot state; the CRCs make that safe.
type Table struct {
	geo  Geometry
	buf  []byte
	keys map[int][]byte // slot -> key copy, for displacement re-hashing
	rng  uint64         // LCG state for random-walk eviction choice
	live int
}

// New builds a table over buf (len(buf)/SlotSize slots, all cleared).
func New(buf []byte) *Table {
	n := len(buf) / SlotSize
	if n < 1 {
		panic(ErrTooSmall)
	}
	t := &Table{geo: DefaultGeometry(n), buf: buf, keys: make(map[int][]byte), rng: 0x853C49E6748FEA9B}
	for i := 0; i < n; i++ {
		ClearSlot(t.slot(i))
	}
	return t
}

// Geometry returns the table's geometry for remote clients.
func (t *Table) Geometry() Geometry { return t.geo }

// Len returns the number of live entries.
func (t *Table) Len() int { return t.live }

func (t *Table) slot(i int) []byte { return t.buf[i*SlotSize : (i+1)*SlotSize] }

// Lookup finds key locally (server side), returning its entry and slot
// index.
func (t *Table) Lookup(key []byte) (Entry, int, bool) {
	fp := t.geo.Fingerprint(key)
	for _, idx := range t.geo.Candidates(key) {
		e, ok, err := DecodeSlot(t.slot(idx))
		if err != nil || !ok {
			continue
		}
		if e.KeyFP == fp && string(t.keys[idx]) == string(key) {
			return e, idx, true
		}
	}
	return Entry{}, 0, false
}

// Insert places key's entry, updating in place when the key exists and
// displacing residents cuckoo-style otherwise. Returns the slot index used.
func (t *Table) Insert(key []byte, e Entry) (int, error) {
	e.KeyFP = t.geo.Fingerprint(key)
	e.KeySize = uint16(len(key))
	if _, idx, found := t.Lookup(key); found {
		EncodeSlot(t.slot(idx), e)
		return idx, nil
	}
	// Empty candidate?
	cands := t.geo.Candidates(key)
	for _, idx := range cands {
		if _, ok, err := DecodeSlot(t.slot(idx)); err == nil && !ok {
			t.place(idx, key, e)
			t.live++
			return idx, nil
		}
	}
	// Displace with a random walk: a pseudo-random eviction choice avoids
	// the short cycles a deterministic rotation can fall into.
	curKey, curEntry := append([]byte(nil), key...), e
	first := -1
	for kicks := 0; kicks < MaxKicks; kicks++ {
		cands := t.geo.Candidates(curKey)
		t.rng = t.rng*6364136223846793005 + 1442695040888963407
		victim := cands[(t.rng>>33)%Ways]
		vKey := append([]byte(nil), t.keys[victim]...)
		vEntry, vOK, _ := DecodeSlot(t.slot(victim))
		t.place(victim, curKey, curEntry)
		if first == -1 {
			first = victim
		}
		if !vOK {
			t.live++
			return first, nil
		}
		// Find an empty candidate for the displaced resident.
		placed := false
		for _, idx := range t.geo.Candidates(vKey) {
			if idx == victim {
				continue
			}
			if _, ok, err := DecodeSlot(t.slot(idx)); err == nil && !ok {
				t.place(idx, vKey, vEntry)
				placed = true
				break
			}
		}
		if placed {
			t.live++
			return first, nil
		}
		curKey, curEntry = vKey, vEntry
	}
	return 0, ErrFull
}

func (t *Table) place(idx int, key []byte, e Entry) {
	EncodeSlot(t.slot(idx), e)
	t.keys[idx] = append([]byte(nil), key...)
}

// SlotOffset returns the byte offset of slot idx, for building RDMA reads.
func SlotOffset(idx int) int { return idx * SlotSize }
