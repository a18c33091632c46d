// Package kv provides the building blocks shared by the key-value stores in
// this repository: the GET/PUT wire protocol and the in-memory structures —
// Jakiro's bucket store ("a number of buckets, each of which contains eight
// slots ... strict LRU for slot eviction in this bucket", paper Sec. 4.1)
// and the small per-thread key cache used to model CPU cache locality in the
// RDMA-Memcached baseline.
package kv

import (
	"errors"
	"fmt"

	"rfp/internal/sim"
	"rfp/internal/workload"
)

// Conn is one client thread's synchronous handle to a store: every system
// in this repository (the four paper stores, the sharded fan-out, the
// replicated group) exposes this pair, and every harness drives them
// through it.
type Conn interface {
	Get(p *sim.Proc, key uint64, out []byte) (int, bool, error)
	Put(p *sim.Proc, key uint64, value []byte) error
}

// Do executes one generated workload operation on c and reports whether it
// found (GET, read-modify-write) or stored (PUT) its key. Value bytes are
// derived from the key (workload.FillValue: version 0 for a PUT, 1 for the
// write half of a read-modify-write), so any reader can verify them.
func Do(c Conn, p *sim.Proc, op workload.Op, scratch []byte) (bool, error) {
	switch op.Kind {
	case workload.Get:
		_, found, err := c.Get(p, op.Key, scratch)
		return found, err
	case workload.ReadModifyWrite:
		_, found, err := c.Get(p, op.Key, scratch)
		if err != nil {
			return false, err
		}
		v := scratch[:op.ValueSize]
		workload.FillValue(v, op.Key, 1)
		if err := c.Put(p, op.Key, v); err != nil {
			return false, err
		}
		return found, nil
	default:
		v := scratch[:op.ValueSize]
		workload.FillValue(v, op.Key, 0)
		err := c.Put(p, op.Key, v)
		return err == nil, err
	}
}

// Op codes of the KV RPC protocol.
const (
	OpGet byte = 0x01
	OpPut byte = 0x02
)

// Response status codes.
const (
	StatusOK       byte = 0x00
	StatusNotFound byte = 0x01
	StatusError    byte = 0x02
)

// ErrShortMessage reports a truncated protocol message.
var ErrShortMessage = errors.New("kv: short message")

// EncodeGet marshals a GET request into buf: [op][16B key].
func EncodeGet(buf []byte, key uint64) []byte {
	buf[0] = OpGet
	workload.EncodeKey(buf[1:], key)
	return buf[:1+workload.KeySize]
}

// EncodePut marshals a PUT request into buf: [op][16B key][value].
func EncodePut(buf []byte, key uint64, value []byte) []byte {
	buf[0] = OpPut
	workload.EncodeKey(buf[1:], key)
	copy(buf[1+workload.KeySize:], value)
	return buf[:1+workload.KeySize+len(value)]
}

// Request is a decoded KV request.
type Request struct {
	Op    byte
	Key   []byte // canonical 16-byte key
	Value []byte // PUT payload (view into the input)
}

// DecodeRequest parses a marshaled request.
func DecodeRequest(msg []byte) (Request, error) {
	if len(msg) < 1+workload.KeySize {
		return Request{}, ErrShortMessage
	}
	r := Request{Op: msg[0], Key: msg[1 : 1+workload.KeySize]}
	switch r.Op {
	case OpPut:
		r.Value = msg[1+workload.KeySize:]
	case OpGet:
	default:
		return Request{}, fmt.Errorf("kv: unknown op 0x%02x", msg[0])
	}
	return r, nil
}

// EncodeResponse marshals [status][value] into buf and returns the length.
func EncodeResponse(buf []byte, status byte, value []byte) int {
	buf[0] = status
	copy(buf[1:], value)
	return 1 + len(value)
}

// DecodeResponse splits a response into status and value.
func DecodeResponse(msg []byte) (byte, []byte, error) {
	if len(msg) < 1 {
		return StatusError, nil, ErrShortMessage
	}
	return msg[0], msg[1:], nil
}

// SlotsPerBucket is Jakiro's bucket width: eight 8-byte slots, so a bucket's
// slot metadata fills one cache line.
const SlotsPerBucket = 8

// slot holds one key-value pair's bookkeeping. In the C++ original a slot
// is the 8-byte address of the pair; here it also owns the pair's storage.
type slot struct {
	used    bool
	keyHash uint64
	key     []byte
	value   []byte
	lastUse uint64 // LRU clock tick of the most recent access
}

// BucketStore is Jakiro's in-memory key-value structure: hash-addressed
// buckets of SlotsPerBucket slots with strict per-bucket LRU eviction. One
// BucketStore is one EREW partition — exactly one server thread may touch
// it, so it needs (and has) no locking.
type BucketStore struct {
	buckets []([SlotsPerBucket]slot)
	clock   uint64
	live    int
}

// NewBucketStore creates a store with nBuckets buckets (capacity
// nBuckets*8 pairs before LRU eviction starts).
func NewBucketStore(nBuckets int) *BucketStore {
	if nBuckets < 1 {
		nBuckets = 1
	}
	return &BucketStore{buckets: make([]([SlotsPerBucket]slot), nBuckets)}
}

// BucketsFor sizes a hash table for keys spread over threads partitions:
// ~2x headroom over SlotsPerBucket-slot buckets, at least 1024 buckets.
func BucketsFor(keys, threads int) int {
	if threads < 1 {
		threads = 1
	}
	b := keys / threads / 4
	if b < 1024 {
		b = 1024
	}
	return b
}

func hashKey(key []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 32
	return h
}

// HashKey exposes the store's key hash (for partitioning decisions that
// must agree between clients and servers).
func HashKey(key []byte) uint64 { return hashKey(key) }

func (s *BucketStore) bucketFor(h uint64) *[SlotsPerBucket]slot {
	return &s.buckets[h%uint64(len(s.buckets))]
}

// Get returns the value for key and refreshes its LRU position.
func (s *BucketStore) Get(key []byte) ([]byte, bool) {
	h := hashKey(key)
	b := s.bucketFor(h)
	for i := range b {
		sl := &b[i]
		if sl.used && sl.keyHash == h && string(sl.key) == string(key) {
			s.clock++
			sl.lastUse = s.clock
			return sl.value, true
		}
	}
	return nil, false
}

// Put inserts or updates key, evicting the bucket's least-recently-used
// slot when full. It reports whether an eviction occurred.
func (s *BucketStore) Put(key, value []byte) bool {
	h := hashKey(key)
	b := s.bucketFor(h)
	s.clock++
	// Update in place.
	for i := range b {
		sl := &b[i]
		if sl.used && sl.keyHash == h && string(sl.key) == string(key) {
			sl.value = append(sl.value[:0], value...)
			sl.lastUse = s.clock
			return false
		}
	}
	// Free slot.
	for i := range b {
		if !b[i].used {
			b[i] = slot{
				used:    true,
				keyHash: h,
				key:     append([]byte(nil), key...),
				value:   append([]byte(nil), value...),
				lastUse: s.clock,
			}
			s.live++
			return false
		}
	}
	// Strict LRU eviction within the bucket.
	victim := 0
	for i := 1; i < SlotsPerBucket; i++ {
		if b[i].lastUse < b[victim].lastUse {
			victim = i
		}
	}
	b[victim] = slot{
		used:    true,
		keyHash: h,
		key:     append([]byte(nil), key...),
		value:   append([]byte(nil), value...),
		lastUse: s.clock,
	}
	return true
}

// Len returns the number of live pairs.
func (s *BucketStore) Len() int { return s.live }

// KeyCache is a small bounded LRU set of recently accessed keys. The
// RDMA-Memcached model consults it to charge reduced CPU cost for hot keys
// — the "cache locality" effect that lifts its throughput under skewed
// workloads (paper Sec. 4.4.3). It is a classic map + intrusive
// doubly-linked list LRU, O(1) per access.
type KeyCache struct {
	capacity int
	entries  map[uint64]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
}

type lruNode struct {
	hash       uint64
	prev, next *lruNode
}

// NewKeyCache creates a cache of the given capacity (entries).
func NewKeyCache(capacity int) *KeyCache {
	if capacity < 1 {
		capacity = 1
	}
	return &KeyCache{capacity: capacity, entries: make(map[uint64]*lruNode, capacity+1)}
}

func (c *KeyCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *KeyCache) pushFront(n *lruNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// Touch records an access and reports whether the key was already cached.
func (c *KeyCache) Touch(key []byte) bool {
	h := hashKey(key)
	if n, hit := c.entries[h]; hit {
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		return true
	}
	n := &lruNode{hash: h}
	c.entries[h] = n
	c.pushFront(n)
	if len(c.entries) > c.capacity {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.hash)
	}
	return false
}

// Len returns the number of cached keys.
func (c *KeyCache) Len() int { return len(c.entries) }

// PartitionFor maps a key onto one of n EREW partitions. Clients and
// servers must use the same function so requests land on the owning thread.
// The partition hash is remixed independently of the bucket hash: deriving
// both from the same residue classes would leave each partition's store
// able to reach only a fraction of its buckets (gcd(n, buckets) aliasing).
func PartitionFor(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	h := hashKey(key)
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return int(h % uint64(n))
}
