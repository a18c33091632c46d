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
//
// That CRC'd image is for remote readers only. The server, the region's
// only writer, keeps its own per-slot index of entries and resident keys
// and never decodes its own slots: DecodeSlot is the client's path.
package cuckoo

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"slices"
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

// locate returns key's fingerprint and candidate slots. Each is a seeded
// splitmix-style hash of the key's bytes; the four chains are independent,
// so they advance side by side in one pass. It is written out for
// Ways == 3.
func (g *Geometry) locate(key []byte) (fp uint64, cands [Ways]int) {
	h0, h1, h2, hf := g.Seeds[0], g.Seeds[1], g.Seeds[2], g.FPSeed
	for _, b := range key {
		x := uint64(b)
		h0 = (h0 ^ x) * 0x100000001B3
		h1 = (h1 ^ x) * 0x100000001B3
		h2 = (h2 ^ x) * 0x100000001B3
		hf = (hf ^ x) * 0x100000001B3
		h0 ^= h0 >> 29
		h1 ^= h1 >> 29
		h2 ^= h2 >> 29
		hf ^= hf >> 29
	}
	n := uint64(g.NumSlots)
	cands = [Ways]int{int(finish(h0) % n), int(finish(h1) % n), int(finish(h2) % n)}
	if fp = finish(hf); fp == 0 {
		fp = 1 // 0 marks empty slots
	}
	return fp, cands
}

// finish is the hash's final avalanche.
func finish(h uint64) uint64 {
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

// Candidates returns the Ways slot indices key may occupy.
func (g Geometry) Candidates(key []byte) [Ways]int {
	_, cands := g.locate(key)
	return cands
}

// Fingerprint returns the key's slot fingerprint.
func (g Geometry) Fingerprint(key []byte) uint64 {
	fp, _ := g.locate(key)
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
// inserts with cuckoo displacement. The CRC'd slot image is what remote
// readers see, and every slot write goes through EncodeSlot; the server
// itself never reads that image back. It keeps its own index instead — one
// record per slot with the entry and the resident key — so Lookup and
// Insert run on plain fields, and nothing the server does depends on the
// CRCs that exist for one-sided readers. Concurrent remote readers see
// every intermediate slot state; the CRCs make that safe.
type Table struct {
	geo   Geometry
	buf   []byte
	index []slotRec // per slot; agrees with DecodeSlot of that slot
	arena []byte    // resident keys, appended once per new key
	walk  []undo    // slots the current displacement walk overwrote
	rng   uint64    // LCG state for random-walk eviction choice
	live  int
}

// slotRec is the server's record of one slot: the entry its image encodes
// and where the resident key sits in the key arena (a table's keys total
// under 4 GiB). It holds no pointers, so the garbage collector never scans
// the index.
type slotRec struct {
	e      Entry
	keyOff uint32
	keyLen uint32
	live   bool
}

// undo is one slot a displacement walk overwrote, with its previous record.
type undo struct {
	idx int
	rec slotRec
}

// clearedLen is the prefix of a slot ClearSlot writes: 32 payload bytes and
// their CRC.
const clearedLen = 40

// cleared is ClearSlot's image, computed once: New copies it into every
// slot rather than running one CRC per slot.
var cleared = func() (img [clearedLen]byte) {
	ClearSlot(img[:])
	return img
}()

// New builds a table over buf (len(buf)/SlotSize slots, all cleared).
func New(buf []byte) *Table {
	n := len(buf) / SlotSize
	if n < 1 {
		panic(ErrTooSmall)
	}
	t := &Table{geo: DefaultGeometry(n), buf: buf, index: make([]slotRec, n), rng: 0x853C49E6748FEA9B}
	for i := 0; i < n; i++ {
		copy(t.slot(i), cleared[:])
	}
	return t
}

// Geometry returns the table's geometry for remote clients.
func (t *Table) Geometry() Geometry { return t.geo }

// Len returns the number of live entries.
func (t *Table) Len() int { return t.live }

func (t *Table) slot(i int) []byte { return t.buf[i*SlotSize : (i+1)*SlotSize] }

func (t *Table) key(r *slotRec) []byte { return t.arena[r.keyOff : r.keyOff+r.keyLen] }

// Lookup finds key locally (server side), returning its entry and slot
// index.
func (t *Table) Lookup(key []byte) (Entry, int, bool) {
	fp, cands := t.geo.locate(key)
	if idx := t.find(key, fp, cands); idx >= 0 {
		return t.index[idx].e, idx, true
	}
	return Entry{}, 0, false
}

// find returns the slot among cands holding key (fingerprint fp), or -1.
func (t *Table) find(key []byte, fp uint64, cands [Ways]int) int {
	for _, idx := range cands {
		r := &t.index[idx]
		if r.live && r.e.KeyFP == fp && string(t.key(r)) == string(key) {
			return idx
		}
	}
	return -1
}

// Insert places key's entry, updating in place when the key exists and
// displacing residents cuckoo-style otherwise. Returns the slot index used.
// On ErrFull the table — slot image and index — is exactly as it was.
func (t *Table) Insert(key []byte, e Entry) (int, error) {
	fp, cands := t.geo.locate(key)
	e.KeyFP, e.KeySize = fp, uint16(len(key))
	if idx := t.find(key, fp, cands); idx >= 0 {
		t.index[idx].e = e
		EncodeSlot(t.slot(idx), e)
		return idx, nil
	}
	// The arena owns a copy: key may alias a buffer the caller reuses. It
	// doubles (append alone grows large slices by a quarter at a time).
	mark := len(t.arena)
	if cap(t.arena)-mark < len(key) {
		t.arena = slices.Grow(t.arena, max(mark, 4096, len(key)))
	}
	t.arena = append(t.arena, key...)
	cur := slotRec{e: e, keyOff: uint32(mark), keyLen: uint32(len(key)), live: true}
	// Empty candidate?
	for _, idx := range cands {
		if !t.index[idx].live {
			t.place(idx, cur)
			t.live++
			return idx, nil
		}
	}
	// Displace with a random walk: a pseudo-random eviction choice avoids
	// the short cycles a deterministic rotation can fall into.
	t.walk = slices.Grow(t.walk[:0], MaxKicks)
	first := -1
	for kicks := 0; kicks < MaxKicks; kicks++ {
		t.rng = t.rng*6364136223846793005 + 1442695040888963407
		victim := cands[(t.rng>>33)%Ways]
		v := t.index[victim]
		t.walk = append(t.walk, undo{victim, v})
		t.place(victim, cur)
		if first == -1 {
			first = victim
		}
		if !v.live {
			t.live++
			return first, nil
		}
		// Find an empty candidate for the displaced resident.
		cands = t.geo.Candidates(t.key(&v))
		for _, idx := range cands {
			if idx != victim && !t.index[idx].live {
				t.place(idx, v)
				t.live++
				return first, nil
			}
		}
		cur = v
	}
	// Give up without losing anyone: put every overwritten slot back, the
	// latest first, and drop the new key's arena copy.
	for i := len(t.walk) - 1; i >= 0; i-- {
		t.place(t.walk[i].idx, t.walk[i].rec)
	}
	t.arena = t.arena[:mark]
	return 0, ErrFull
}

func (t *Table) place(idx int, r slotRec) {
	EncodeSlot(t.slot(idx), r.e)
	t.index[idx] = r
}

// SlotOffset returns the byte offset of slot idx, for building RDMA reads.
func SlotOffset(idx int) int { return idx * SlotSize }
