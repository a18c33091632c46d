package pilafkv

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rfp/internal/cuckoo"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// TestPreloadImagePinned pins the bytes a remote one-sided reader sees. It
// preloads the benchmark's Pilaf shape (100k keys of 32 B in a table sized
// for 100,064) and applies a fixed script of updates and new keys, then
// checks SHA-256 digests of the slot and extent regions. The digests were
// recorded before the server kept its own slot index, so any drift in how
// slots or extents are written — placement, displacement, versions, CRCs —
// fails here.
func TestPreloadImagePinned(t *testing.T) {
	const (
		keys      = 100_000
		valueSize = 32
		ops       = 1000
		// The slot region's and the extent region's digests after the script.
		slotSHA = "bc635c0c61b269a64d1cf469b8b3c5eeacf181b4e21ba90cef8b88d287280d1d"
		dataSHA = "ced48531dd8f4abdc7b9b911dc4c49d89d3163ceab6c90c64ce3227bcf5e45c0"
	)
	r := newRig(t, 1, Config{Capacity: keys + 64, MaxValue: valueSize})
	if err := r.srv.Preload(workload.Preload(workload.Config{Keys: keys}), valueSize); err != nil {
		t.Fatal(err)
	}
	kbuf := make([]byte, workload.KeySize)
	val := make([]byte, valueSize)
	fresh := uint64(keys)
	for i := 0; i < ops; i++ {
		k := uint64(i*7919) % keys // an update of a preloaded key
		if i%16 == 15 {
			k, fresh = fresh, fresh+1 // a new key: 62 of them, within capacity
		}
		v := val[:1+i%valueSize]
		workload.FillValue(v, k, uint32(i))
		if err := r.srv.put(nil, workload.EncodeKey(kbuf, k), v); err != nil {
			t.Fatalf("op %d (key %d): %v", i, k, err)
		}
	}
	if got := r.srv.table.Len(); got != int(fresh) {
		t.Fatalf("table holds %d keys, want %d", got, fresh)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	if got := digest(r.srv.slotMR.Buf); got != slotSHA {
		t.Errorf("slot region sha256 = %s, want %s", got, slotSHA)
	}
	if got := digest(r.srv.dataMR.Buf); got != dataSHA {
		t.Errorf("extent region sha256 = %s, want %s", got, dataSHA)
	}
}

// TestPreloadAllocsBounded is set-up's allocation floor: building a server
// and preloading 10k keys makes a bounded number of heap allocations — the
// regions, the table's slot index and key arena, the RFP server — not one
// or more per key.
func TestPreloadAllocsBounded(t *testing.T) {
	const keys, valueSize, limit = 10_000, 32, 64
	env := sim.NewEnv(41)
	t.Cleanup(env.Close)
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	preload := workload.Preload(workload.Config{Keys: keys})
	allocs := testing.AllocsPerRun(1, func() {
		srv := NewServer(cl.Server, Config{Capacity: keys + 64, MaxValue: valueSize})
		if err := srv.Preload(preload, valueSize); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Fatalf("NewServer + Preload of %d keys made %.0f allocations, want <= %d", keys, allocs, limit)
	}
}

// TestPutErrFullKeepsStore: a PUT of a new key that the cuckoo table
// cannot place fails without touching any other key, and hands its extent
// back, so the region still has room for the next new key. In a 4-key
// store (8 slots), keys 480–482 fit and 483 hits the displacement limit.
func TestPutErrFullKeepsStore(t *testing.T) {
	r := newRig(t, 1, Config{Capacity: 4, MaxValue: 8})
	kbuf := make([]byte, workload.KeySize)
	val := []byte("pilaf-v")
	for k := uint64(480); k < 483; k++ {
		if err := r.srv.put(nil, workload.EncodeKey(kbuf, k), val); err != nil {
			t.Fatalf("put(%d): %v", k, err)
		}
	}
	if err := r.srv.put(nil, workload.EncodeKey(kbuf, 483), val); err != cuckoo.ErrFull {
		t.Fatalf("put(483) = %v, want cuckoo.ErrFull", err)
	}
	for k := uint64(480); k < 483; k++ {
		key := workload.EncodeKey(kbuf, k)
		e, _, ok := r.srv.table.Lookup(key)
		if !ok {
			t.Fatalf("key %d lost after a failed PUT of another key", k)
		}
		ext := r.srv.dataMR.Buf[e.DataOff:]
		if string(ext[extentHdr:extentHdr+len(key)]) != string(key) {
			t.Fatalf("key %d's slot points at another key's extent", k)
		}
	}
	if r.srv.table.Len() != 3 || r.srv.nextOff != 3*r.srv.cfg.stride() {
		t.Fatalf("after the failed PUT: %d keys, next extent at %d; want 3 keys, extent %d",
			r.srv.table.Len(), r.srv.nextOff, 3*r.srv.cfg.stride())
	}
}
