package kv

import (
	"errors"
	"fmt"

	"rfp/internal/core"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

// ErrBadResponse reports a response whose status the request cannot carry.
var ErrBadResponse = errors.New("kv: malformed response")

// Stub is one client thread's end of the GET/PUT protocol over RFP: request
// and response buffers sized for a store's largest value, the size check,
// and the encode → call → decode round trip. Jakiro, RDMA-Memcached and
// Pilaf's PUT channel route Get and Put through it; the replicated store
// answers with statuses of its own, so it runs its own retry loop over Call.
type Stub struct {
	maxValue  int
	req, resp []byte
}

// NewStub sizes a stub for values of up to maxValue bytes.
func NewStub(maxValue int) Stub {
	return Stub{
		maxValue: maxValue,
		req:      make([]byte, 1+workload.KeySize+maxValue),
		resp:     make([]byte, 1+maxValue),
	}
}

func (s *Stub) checkValue(n int) error {
	if n > s.maxValue {
		return fmt.Errorf("kv: value of %d bytes exceeds limit %d", n, s.maxValue)
	}
	return nil
}

// EncodeGet stages a GET of key in the request buffer.
func (s *Stub) EncodeGet(key uint64) []byte { return EncodeGet(s.req, key) }

// EncodePut stages a PUT of value under key, or fails, staging nothing,
// when value is over the stub's MaxValue.
func (s *Stub) EncodePut(key uint64, value []byte) ([]byte, error) {
	if err := s.checkValue(len(value)); err != nil {
		return nil, err
	}
	return EncodePut(s.req, key, value), nil
}

// EncodeOp stages a generated GET or PUT, filling a PUT's value (as Do
// does) in place.
func (s *Stub) EncodeOp(op workload.Op) ([]byte, error) {
	if op.Kind == workload.Get {
		return s.EncodeGet(op.Key), nil
	}
	if err := s.checkValue(op.ValueSize); err != nil {
		return nil, err
	}
	v := s.req[1+workload.KeySize : 1+workload.KeySize+op.ValueSize]
	workload.FillValue(v, op.Key, 0)
	return EncodePut(s.req, op.Key, v), nil
}

// Call sends a staged request over conn and returns the response's status
// and payload, which aliases the response buffer until the next call. err
// is the transport's; an empty response reads as StatusError.
func (s *Stub) Call(p *sim.Proc, conn *core.Client, req []byte) (byte, []byte, error) {
	n, err := conn.Call(p, req, s.resp)
	if err != nil {
		return StatusError, nil, err
	}
	status, val, _ := DecodeResponse(s.resp[:n]) // empty reads as StatusError
	return status, val, nil
}

// Get fetches key's value over conn into out, reporting whether it was
// found. The returned count is the value length.
func (s *Stub) Get(p *sim.Proc, conn *core.Client, key uint64, out []byte) (int, bool, error) {
	status, val, err := s.Call(p, conn, s.EncodeGet(key))
	return result(status, val, err, out)
}

// Put stores value under key over conn.
func (s *Stub) Put(p *sim.Proc, conn *core.Client, key uint64, value []byte) error {
	req, err := s.EncodePut(key, value)
	if err != nil {
		return err
	}
	status, _, err := s.Call(p, conn, req)
	if err == nil && status != StatusOK {
		err = ErrBadResponse
	}
	return err
}

// Poll redeems a request posted on conn from EncodeOp's bytes, reporting
// whether it found (GET) or stored (PUT) its key; a GET's value is copied
// into out.
func (s *Stub) Poll(p *sim.Proc, conn *core.Client, h core.Handle, out []byte) (bool, error) {
	n, err := conn.Poll(p, h, s.resp)
	if err != nil {
		return false, err
	}
	status, val, _ := DecodeResponse(s.resp[:n]) // empty reads as StatusError
	_, found, err := result(status, val, nil, out)
	return found, err
}

// result decodes a call's outcome: OK copies the value into out and
// reports found, NotFound reports not found, any other status is
// ErrBadResponse.
func result(status byte, val []byte, err error, out []byte) (int, bool, error) {
	switch {
	case err != nil:
		return 0, false, err
	case status == StatusOK:
		return copy(out, val), true, nil
	case status == StatusNotFound:
		return 0, false, nil
	}
	return 0, false, ErrBadResponse
}
