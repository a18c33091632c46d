// Package pilafkv models Pilaf (Mitchell et al., ATC'13), the
// server-bypass key-value store the paper compares against in Sec. 4.3:
//
//   - GETs are executed entirely by clients with one-sided RDMA Reads
//     against a 3-way Cuckoo hash table of self-verifying (CRC64) slots and
//     a data-extent region — the server CPU is bypassed;
//   - PUTs are shipped to the server over a server-reply channel, since
//     one-sided writers cannot safely restructure the table;
//   - clients must detect torn reads (a slot or extent being rewritten
//     underneath them) via checksums and retry.
//
// The checksummed slot and extent images are what remote readers see. The
// server never reads them back: where a key's extent lives and which
// version it holds come from the cuckoo table's own server-side index.
//
// This package exists to reproduce "bypass access amplification": even
// read-only GETs cost multiple RDMA round trips (slot probes + data read +
// checksum retries — Pilaf reports 3.2 on average at 75% fill), so measured
// throughput lands far below the one-op ideal, and degrades further when
// write conflicts force retries (Fig. 6, Fig. 11).
package pilafkv

import (
	"encoding/binary"
	"errors"
	"hash/crc64"

	"rfp/internal/core"
	"rfp/internal/cuckoo"
	"rfp/internal/fabric"
	"rfp/internal/kvstore/kv"
	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// Errors.
var (
	ErrTooManyRetries = errors.New("pilafkv: GET retries exhausted (persistent write conflict)")
	ErrStoreFull      = errors.New("pilafkv: extent region full")
)

// MaxGetRetries bounds how often a GET restarts after torn slots/extents.
const MaxGetRetries = 64

const extentHdr = 16 // [u32 version][u32 valSize][u16 keySize][6B pad]

var crcTab = crc64.MakeTable(crc64.ECMA)

// Config parameterizes the store.
type Config struct {
	Capacity int // maximum number of keys
	MaxValue int
	Threads  int // server threads handling PUTs
	// Params configures the PUT channel, which always runs in server-reply
	// mode (Params.ServerReply); zero means the paper's defaults.
	Params core.Params
}

const (
	// fill is the cuckoo table fill target (0.75 as in Pilaf's eval).
	fill = 0.75
	// putCPUNs is the server-side processing cost per PUT beyond copies.
	putCPUNs = 1200
)

// DefaultConfig matches the scale used in tests/benches. Pilaf is
// deliberately CPU-frugal — PUTs funnel through a small dispatcher pool and
// each carries real messaging/processing cost — which (together with GET
// access amplification) is why its measured throughput sits far below the
// NIC ceilings (~1.3 MOPS at 50% GET on the 20 Gbps testbed it published).
func DefaultConfig() Config {
	return Config{Capacity: 1 << 17, MaxValue: 1024, Threads: 2}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Capacity <= 0 {
		c.Capacity = d.Capacity
	}
	if c.MaxValue <= 0 {
		c.MaxValue = d.MaxValue
	}
	if c.Threads <= 0 {
		c.Threads = d.Threads
	}
	if c.Params == (core.Params{}) {
		c.Params = core.DefaultParams()
	}
	c.Params = c.Params.ServerReply()
	return c
}

func (c Config) stride() int {
	s := extentHdr + workload.KeySize + c.MaxValue + 8
	return (s + 63) / 64 * 64
}

// Server owns the RDMA-exposed table and extent regions and processes PUTs.
type Server struct {
	cfg     Config
	machine *fabric.Machine
	rfp     *core.Server
	table   *cuckoo.Table
	slotMR  *rnic.MR
	dataMR  *rnic.MR
	lock    *sim.Resource // serializes table restructuring across threads
	nextOff int
}

// NewServer creates the store on machine m.
func NewServer(m *fabric.Machine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	nSlots := cuckoo.NumSlotsFor(cfg.Capacity, fill)
	slotMR := m.NIC().RegisterMemory(nSlots * cuckoo.SlotSize)
	dataMR := m.NIC().RegisterMemory(cfg.Capacity * cfg.stride())
	s := &Server{
		cfg:     cfg,
		machine: m,
		rfp: core.NewServer(m, core.ServerConfig{
			MaxRequest:  1 + workload.KeySize + cfg.MaxValue,
			MaxResponse: 8,
		}),
		table:  cuckoo.New(slotMR.Buf),
		slotMR: slotMR,
		dataMR: dataMR,
		// Homed to m's lane: server procs hold this lock, and a wake
		// from a foreign lane deadlocks the sharded kernel.
		lock: sim.NewResourceOn(m.Shard(), 1),
	}
	s.rfp.AddThreads(cfg.Threads)
	return s
}

// Table exposes the cuckoo table (tests).
func (s *Server) Table() *cuckoo.Table { return s.table }

// put applies one PUT to the extent and slot regions. When p is non-nil the
// extent is written in two timed phases, opening the torn-read window
// remote GETs must survive; Preload passes nil for instantaneous loading.
func (s *Server) put(p *sim.Proc, key, value []byte) error {
	// The table's entry says where key's extent is and which version it
	// holds; a key the table lacks gets a fresh extent at version 1.
	e, _, found := s.table.Lookup(key)
	off, version := int(e.DataOff), e.Version+1
	if !found {
		if s.nextOff+s.cfg.stride() > len(s.dataMR.Buf) {
			return ErrStoreFull
		}
		off, version = s.nextOff, 1
		s.nextOff += s.cfg.stride()
	}
	buf := s.dataMR.Buf[off : off+s.cfg.stride()]
	binary.LittleEndian.PutUint32(buf[0:4], version)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(value)))
	binary.LittleEndian.PutUint16(buf[8:10], uint16(len(key)))
	copy(buf[extentHdr:], key)
	payload := buf[extentHdr+len(key):]
	half := len(value) / 2
	prof := s.machine.Profile()
	copy(payload, value[:half])
	if p != nil {
		// The memcpy takes real time; a concurrent remote reader can see
		// half-old half-new bytes here. The CRC below is what makes that
		// detectable.
		s.machine.ComputeNs(p, putCPUNs+prof.CopyNs(len(value)))
	}
	copy(payload[half:], value[half:])
	crcEnd := extentHdr + len(key) + len(value)
	crc := crc64.Checksum(buf[:crcEnd], crcTab)
	binary.LittleEndian.PutUint64(buf[crcEnd:crcEnd+8], crc)
	// Publish via the slot (atomic in virtual time: no yields inside).
	if p != nil {
		s.lock.Acquire(p)
	}
	_, err := s.table.Insert(key, cuckoo.Entry{
		DataOff: uint64(off),
		ValSize: uint32(len(value)),
		Version: version,
	})
	if p != nil {
		s.lock.Release()
	}
	if err != nil && !found && s.nextOff == off+s.cfg.stride() {
		s.nextOff = off // no slot points at the fresh extent: reclaim it
	}
	return err
}

// Preload inserts all keys instantaneously with FillValue contents.
func (s *Server) Preload(keys []uint64, valueSize int) error {
	kbuf := make([]byte, workload.KeySize)
	val := make([]byte, valueSize)
	for _, k := range keys {
		key := workload.EncodeKey(kbuf, k)
		workload.FillValue(val, k, 0)
		if err := s.put(nil, key, val); err != nil {
			return err
		}
	}
	return nil
}

// NewClient connects one client thread: a one-sided QP for GETs plus a
// server-reply RPC channel for PUTs (the paradigm split Pilaf uses).
func (s *Server) NewClient(cm *fabric.Machine) *Client {
	putCli, _ := s.rfp.Accept(cm, s.cfg.Params)
	qp, _ := rnic.Connect(cm.NIC(), s.machine.NIC())
	return &Client{
		qp:     qp,
		slots:  s.slotMR.Handle(),
		data:   s.dataMR.Handle(),
		geo:    s.table.Geometry(),
		put:    putCli,
		kv:     kv.NewStub(s.cfg.MaxValue),
		extBuf: make([]byte, s.cfg.stride()),
	}
}

// Start spawns the PUT-serving threads. All clients must be connected
// first.
func (s *Server) Start() {
	s.rfp.Start(s.cfg.Threads, func(int) core.Handler { return s.servePut })
}

// servePut is the PUT channel's handler: GETs never reach the server.
func (s *Server) servePut(p *sim.Proc, c *core.Conn, req, resp []byte) int {
	r, err := kv.DecodeRequest(req)
	if err != nil || r.Op != kv.OpPut {
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
	if err := s.put(p, r.Key, r.Value); err != nil {
		return kv.EncodeResponse(resp, kv.StatusError, nil)
	}
	return kv.EncodeResponse(resp, kv.StatusOK, nil)
}

// ClientStats counts the client-side cost of bypass GETs.
type ClientStats struct {
	Gets         uint64
	Puts         uint64
	SlotReads    uint64
	DataReads    uint64
	TornSlots    uint64 // slot CRC failures observed
	TornExtents  uint64 // extent CRC/version failures observed
	FPCollisions uint64
	Restarts     uint64
}

// Add accumulates o into st (aggregating per-thread clients).
func (st *ClientStats) Add(o ClientStats) {
	st.Gets += o.Gets
	st.Puts += o.Puts
	st.SlotReads += o.SlotReads
	st.DataReads += o.DataReads
	st.TornSlots += o.TornSlots
	st.TornExtents += o.TornExtents
	st.FPCollisions += o.FPCollisions
	st.Restarts += o.Restarts
}

// ReadsPerGet returns the average RDMA reads each GET needed — the access
// amplification number (Pilaf: ~3.2).
func (st ClientStats) ReadsPerGet() float64 {
	if st.Gets == 0 {
		return 0
	}
	return float64(st.SlotReads+st.DataReads) / float64(st.Gets)
}

// Client performs server-bypass GETs and server-reply PUTs.
type Client struct {
	qp     *rnic.QP
	slots  rnic.RemoteMR
	data   rnic.RemoteMR
	geo    cuckoo.Geometry
	put    *core.Client // the PUT channel
	kv     kv.Stub
	extBuf []byte
	// slotBuf is GET's slot-read landing. QP.Read retains its buffer in the
	// work request, so a local array would escape: one heap object per GET.
	slotBuf [cuckoo.SlotSize]byte

	Stats ClientStats
}

// Get fetches key's value into out entirely with one-sided reads.
func (c *Client) Get(p *sim.Proc, key uint64, out []byte) (int, bool, error) {
	var kbuf [workload.KeySize]byte
	k := workload.EncodeKey(kbuf[:], key)
	fp := c.geo.Fingerprint(k)
	cands := c.geo.Candidates(k)
	c.Stats.Gets++
	slotBuf := c.slotBuf[:]
	for retry := 0; retry < MaxGetRetries; retry++ {
		torn := false
		for _, idx := range cands {
			if err := c.qp.Read(p, c.slots, cuckoo.SlotOffset(idx), slotBuf); err != nil {
				return 0, false, err
			}
			c.Stats.SlotReads++
			e, ok, err := cuckoo.DecodeSlot(slotBuf)
			if err != nil {
				// Torn slot: it is being rewritten right now — could be our
				// key, so the whole probe must restart.
				c.Stats.TornSlots++
				torn = true
				continue
			}
			if !ok || e.KeyFP != fp {
				continue
			}
			n, status, err := c.readExtent(p, e, k, out)
			switch status {
			case extentOK:
				return n, true, err
			case extentForeign:
				c.Stats.FPCollisions++
				continue // fingerprint collision; keep probing
			default: // torn
				c.Stats.TornExtents++
				torn = true
			}
		}
		if !torn {
			return 0, false, nil
		}
		c.Stats.Restarts++
	}
	return 0, false, ErrTooManyRetries
}

type extentStatus int

const (
	extentOK extentStatus = iota
	extentForeign
	extentTorn
)

// readExtent fetches and validates the key/value extent a slot points to.
func (c *Client) readExtent(p *sim.Proc, e cuckoo.Entry, key, out []byte) (int, extentStatus, error) {
	total := extentHdr + int(e.KeySize) + int(e.ValSize) + 8
	if total > len(c.extBuf) {
		return 0, extentTorn, nil // implausible size: treat as torn metadata
	}
	if err := c.qp.Read(p, c.data, int(e.DataOff), c.extBuf[:total]); err != nil {
		return 0, extentTorn, err
	}
	c.Stats.DataReads++
	buf := c.extBuf[:total]
	crcEnd := total - 8
	if crc64.Checksum(buf[:crcEnd], crcTab) != binary.LittleEndian.Uint64(buf[crcEnd:]) {
		return 0, extentTorn, nil
	}
	version := binary.LittleEndian.Uint32(buf[0:4])
	valSize := int(binary.LittleEndian.Uint32(buf[4:8]))
	keySize := int(binary.LittleEndian.Uint16(buf[8:10]))
	if version != e.Version || valSize != int(e.ValSize) || keySize != int(e.KeySize) {
		return 0, extentTorn, nil // extent already rewritten for a newer slot
	}
	if string(buf[extentHdr:extentHdr+keySize]) != string(key) {
		return 0, extentForeign, nil
	}
	n := copy(out, buf[extentHdr+keySize:extentHdr+keySize+valSize])
	return n, extentOK, nil
}

// Put stores value under key through the server-reply channel.
func (c *Client) Put(p *sim.Proc, key uint64, value []byte) error {
	c.Stats.Puts++
	return c.kv.Put(p, c.put, key, value)
}

// Do executes a generated workload operation.
func (c *Client) Do(p *sim.Proc, op workload.Op, scratch []byte) (bool, error) {
	return kv.Do(c, p, op, scratch)
}
