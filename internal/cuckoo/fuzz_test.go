package cuckoo

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzTable drives a small table (16–64 slots, so displacement walks and
// ErrFull are common) through inserts of fresh keys, updates of residents
// and re-inserts of keys that failed, and after every op checks that the
// server's index agrees with the slot image remote readers decode, that
// Lookup agrees with a map model, and that no resident is lost. Insert's
// key buffer is overwritten after each call: the table must own its copy.
//
// Input: data[0] picks the slot count; then each byte pair (sel, arg) is
// one op — sel%3 picks fresh insert / update / re-insert, arg the key.
// Ops past maxOps are ignored, so long inputs stay fast.
func FuzzTable(f *testing.F) {
	fill := func(n byte, ops ...byte) []byte { return append([]byte{n}, ops...) }
	var fresh, mixed, wide []byte
	for i := byte(0); i < 40; i++ {
		fresh = append(fresh, 0, i)
		mixed = append(mixed, i%3, i*7)
	}
	for i := byte(0); i < 90; i++ {
		wide = append(wide, i%5%3, i*13)
	}
	f.Add(fill(0, fresh...))   // 16 slots stuffed past ErrFull
	f.Add(fill(0, mixed...))   // updates and re-inserts among the failures
	f.Add(fill(48, wide...))   // 64 slots, long walks
	f.Add(fill(7, 1, 3, 2, 9)) // update/re-insert with nothing to update
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 128
		if len(data) == 0 {
			return
		}
		if len(data) > 1+2*maxOps {
			data = data[:1+2*maxOps]
		}
		tab := New(make([]byte, (16+int(data[0])%49)*SlotSize))
		model := map[string]Entry{}
		var residents, failed []string
		kbuf := make([]byte, 0, 16)
		for op, rest := 0, data[1:]; len(rest) >= 2; op, rest = op+1, rest[2:] {
			sel, arg := rest[0], rest[1]
			key := fmt.Sprintf("key-%d", arg)
			switch {
			case sel%3 == 1 && len(residents) > 0:
				key = residents[int(arg)%len(residents)]
			case sel%3 == 2 && len(failed) > 0:
				key = failed[int(arg)%len(failed)]
			}
			e := Entry{DataOff: uint64(op)<<8 | uint64(arg), ValSize: uint32(sel), Version: uint32(op)}
			before := append([]byte(nil), tab.buf...)
			kbuf = append(kbuf[:0], key...)
			_, err := tab.Insert(kbuf, e)
			for i := range kbuf {
				kbuf[i] = 0xFF // the caller reuses its buffer
			}
			_, had := model[key]
			switch {
			case err == nil:
				if !had {
					residents = append(residents, key)
				}
				e.KeyFP, e.KeySize = tab.geo.Fingerprint([]byte(key)), uint16(len(key))
				model[key] = e
			case err == ErrFull && !had:
				if !bytes.Equal(tab.buf, before) {
					t.Fatalf("op %d: ErrFull inserting %q changed the slot region", op, key)
				}
				failed = append(failed, key)
			default:
				t.Fatalf("op %d: Insert(%q) = %v (resident: %v)", op, key, err, had)
			}
			checkTable(t, tab, model, failed)
		}
	})
}

// checkTable asserts that tab's index agrees with its slot image and that
// Lookup agrees with model: every resident found with its entry, every
// failed key absent, Len equal to the model's size.
func checkTable(t *testing.T, tab *Table, model map[string]Entry, failed []string) {
	t.Helper()
	live := 0
	for i := range tab.index {
		r := &tab.index[i]
		e, ok, err := DecodeSlot(tab.slot(i))
		if err != nil || ok != r.live || (ok && e != r.e) {
			t.Fatalf("slot %d: image (%+v, %v, %v) disagrees with index %+v", i, e, ok, err, *r)
		}
		if !r.live {
			continue
		}
		live++
		key := tab.key(r)
		if fp, cands := tab.geo.locate(key); fp != r.e.KeyFP || (cands[0] != i && cands[1] != i && cands[2] != i) {
			t.Fatalf("slot %d holds key %q, which does not hash there", i, key)
		}
	}
	if live != tab.Len() || tab.Len() != len(model) {
		t.Fatalf("%d live slots, Len %d, model holds %d keys", live, tab.Len(), len(model))
	}
	for key, want := range model {
		if got, _, ok := tab.Lookup([]byte(key)); !ok || got != want {
			t.Fatalf("Lookup(%q) = %+v, %v; want %+v", key, got, ok, want)
		}
	}
	for _, key := range failed {
		if _, ok := model[key]; !ok {
			if _, _, found := tab.Lookup([]byte(key)); found {
				t.Fatalf("failed key %q is found", key)
			}
		}
	}
}

// TestLocateMatchesHashes: locate's one pass computes, for each seed, the
// byte-at-a-time hash below, which is what slot placement was defined by.
func TestLocateMatchesHashes(t *testing.T) {
	hash := func(key []byte, seed uint64) uint64 {
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
	g := DefaultGeometry(1009)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%08d", i*i))[:i%13]
		var cands [Ways]int
		for w, seed := range g.Seeds {
			cands[w] = int(hash(key, seed) % uint64(g.NumSlots))
		}
		fp := max(hash(key, g.FPSeed), 1)
		if gotFP, gotCands := g.locate(key); gotFP != fp || gotCands != cands {
			t.Fatalf("locate(%q) = %x %v, want %x %v", key, gotFP, gotCands, fp, cands)
		}
	}
}
