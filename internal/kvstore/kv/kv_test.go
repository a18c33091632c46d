package kv

import (
	"fmt"
	"testing"
	"testing/quick"

	"rfp/internal/workload"
)

func TestRequestRoundTrip(t *testing.T) {
	buf := make([]byte, 64)
	msg := EncodeGet(buf, 42)
	req, err := DecodeRequest(msg)
	if err != nil || req.Op != OpGet {
		t.Fatalf("get: %+v err=%v", req, err)
	}
	if workload.DecodeKey(req.Key) != 42 {
		t.Fatal("key")
	}

	msg = EncodePut(buf, 43, []byte("vvv"))
	req, err = DecodeRequest(msg)
	if err != nil || req.Op != OpPut || string(req.Value) != "vvv" {
		t.Fatalf("put: %+v err=%v", req, err)
	}
	if workload.DecodeKey(req.Key) != 43 {
		t.Fatal("key")
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	if _, err := DecodeRequest([]byte{OpGet, 1, 2}); err != ErrShortMessage {
		t.Fatalf("short: %v", err)
	}
	// 0x03 and 0x04 were a batched multi-get and a DELETE; the protocol is
	// GET and PUT only, so a stale client's request is an unknown op.
	for _, op := range []byte{0x03, 0x04, 0x7F} {
		bad := make([]byte, 1+2+workload.KeySize) // either retired layout's length
		bad[0] = op
		if _, err := DecodeRequest(bad); err == nil || err == ErrShortMessage {
			t.Fatalf("op 0x%02x: err = %v, want unknown op", op, err)
		}
		if _, err := DecodeRequest(bad[:3]); err != ErrShortMessage {
			t.Fatalf("op 0x%02x, 3 bytes: err = %v, want ErrShortMessage", op, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	buf := make([]byte, 64)
	n := EncodeResponse(buf, StatusOK, []byte("result"))
	status, val, err := DecodeResponse(buf[:n])
	if err != nil || status != StatusOK || string(val) != "result" {
		t.Fatalf("status=%d val=%q err=%v", status, val, err)
	}
	if _, _, err := DecodeResponse(nil); err != ErrShortMessage {
		t.Fatal("empty response accepted")
	}
}

func storeKey(i int) []byte {
	return []byte(fmt.Sprintf("key-%012d", i))
}

func TestBucketStorePutGet(t *testing.T) {
	s := NewBucketStore(16)
	s.Put(storeKey(1), []byte("one"))
	v, ok := s.Get(storeKey(1))
	if !ok || string(v) != "one" {
		t.Fatalf("get: %q %v", v, ok)
	}
	if _, ok := s.Get(storeKey(2)); ok {
		t.Fatal("phantom")
	}
	if s.Len() != 1 {
		t.Fatal("Len")
	}
}

func TestBucketStoreUpdate(t *testing.T) {
	s := NewBucketStore(16)
	s.Put(storeKey(1), []byte("a"))
	if evicted := s.Put(storeKey(1), []byte("bb")); evicted {
		t.Fatal("update should not evict")
	}
	v, _ := s.Get(storeKey(1))
	if string(v) != "bb" {
		t.Fatalf("v = %q", v)
	}
	if s.Len() != 1 {
		t.Fatal("Len after update")
	}
}

func TestBucketStoreLRUEviction(t *testing.T) {
	// Single bucket: the 9th insert evicts the least recently used of the
	// first 8, honoring intervening Get refreshes.
	s := NewBucketStore(1)
	for i := 0; i < SlotsPerBucket; i++ {
		s.Put(storeKey(i), []byte{byte(i)})
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := s.Get(storeKey(0)); !ok {
		t.Fatal("key 0 missing")
	}
	if evicted := s.Put(storeKey(99), []byte("new")); !evicted {
		t.Fatal("full bucket must evict")
	}
	if _, ok := s.Get(storeKey(1)); ok {
		t.Fatal("LRU victim (key 1) survived")
	}
	if _, ok := s.Get(storeKey(0)); !ok {
		t.Fatal("recently-used key 0 evicted")
	}
	if s.Len() != SlotsPerBucket {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestBucketStoreManyKeys(t *testing.T) {
	s := NewBucketStore(4096)
	const n = 20000 // below capacity 4096*8
	for i := 0; i < n; i++ {
		s.Put(storeKey(i), []byte(fmt.Sprintf("val-%d", i)))
	}
	missing := 0
	for i := 0; i < n; i++ {
		v, ok := s.Get(storeKey(i))
		if !ok {
			missing++ // bucket-local overflow can evict even below global capacity
			continue
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("value corruption at %d: %q", i, v)
		}
	}
	// At 61% global load, Poisson bucket occupancy overflows ~2% of keys —
	// expected cache behaviour, but it must stay in that ballpark.
	if float64(missing)/n > 0.04 {
		t.Fatalf("%d/%d keys lost to bucket overflow, want <4%%", missing, n)
	}
}

func TestBucketStoreZeroBuckets(t *testing.T) {
	s := NewBucketStore(0)
	s.Put(storeKey(1), []byte("x"))
	if _, ok := s.Get(storeKey(1)); !ok {
		t.Fatal("degenerate store broken")
	}
}

func TestKeyCache(t *testing.T) {
	c := NewKeyCache(2)
	if c.Touch([]byte("a")) {
		t.Fatal("cold hit")
	}
	if !c.Touch([]byte("a")) {
		t.Fatal("warm miss")
	}
	c.Touch([]byte("b"))
	c.Touch([]byte("c")) // evicts "a" (oldest)
	if c.Touch([]byte("a")) {
		t.Fatal("evicted key still cached")
	}
	if c.Len() > 3 {
		t.Fatalf("cache grew to %d", c.Len())
	}
}

func TestKeyCacheHotHitRate(t *testing.T) {
	c := NewKeyCache(64)
	hits := 0
	for i := 0; i < 1000; i++ {
		if c.Touch([]byte(fmt.Sprintf("hot-%d", i%8))) {
			hits++
		}
	}
	if hits < 990-8 {
		t.Fatalf("hot working set hit %d/1000", hits)
	}
}

func TestPartitionFor(t *testing.T) {
	if PartitionFor([]byte("k"), 1) != 0 || PartitionFor([]byte("k"), 0) != 0 {
		t.Fatal("degenerate partitions")
	}
	counts := make([]int, 6)
	for i := 0; i < 6000; i++ {
		p := PartitionFor(storeKey(i), 6)
		if p < 0 || p >= 6 {
			t.Fatalf("partition %d", p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("partition %d has %d/6000 keys — unbalanced", p, c)
		}
	}
}

// Property: a store never returns a value written under a different key,
// and the most recent Put for a key always wins.
func TestBucketStoreLastWriteWinsProperty(t *testing.T) {
	f := func(writes []uint8) bool {
		s := NewBucketStore(8)
		latest := map[uint8]byte{}
		for i, k := range writes {
			s.Put(storeKey(int(k)), []byte{byte(i)})
			latest[k] = byte(i)
		}
		for k, want := range latest {
			v, ok := s.Get(storeKey(int(k)))
			if ok && v[0] != want {
				return false // stale value is never acceptable; eviction (ok=false) is
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: protocol encode/decode round-trips arbitrary PUTs.
func TestProtocolRoundTripProperty(t *testing.T) {
	f := func(key uint64, val []byte) bool {
		buf := make([]byte, 1+workload.KeySize+len(val))
		msg := EncodePut(buf, key, val)
		req, err := DecodeRequest(msg)
		if err != nil || req.Op != OpPut {
			return false
		}
		return workload.DecodeKey(req.Key) == key && string(req.Value) == string(val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
