// Package rpc is a net/rpc-style remote procedure call framework backed by
// RFP. It exists to demonstrate the paper's central porting claim: "RPC
// mechanisms can be built on top of RFP by simply replacing the original
// TCP/IP socket interface with ours" — services register ordinary Go
// methods exactly as with the standard library's net/rpc, arguments travel
// as gob like net/rpc's default codec, and only the transport underneath is
// RFP instead of TCP.
//
// Server side:
//
//	type Arith struct{}
//	func (Arith) Multiply(args *Args, reply *int) error { *reply = args.A * args.B; return nil }
//	srv := rpc.NewServer(core.NewServer(machine, core.ServerConfig{}))
//	srv.Register("Arith", Arith{})
//	// accept clients, then: srv.RFP().Start(threads, func(int) core.Handler { return srv.Handler() })
//
// Client side:
//
//	var product int
//	err := client.Call(p, "Arith.Multiply", &Args{A: 6, B: 7}, &product)
package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/sim"
)

// Errors.
var (
	ErrNoSuchMethod = errors.New("rpc: no such method")
	ErrBadMessage   = errors.New("rpc: malformed message")
)

// ServerError is an error string returned by the remote method.
type ServerError string

func (e ServerError) Error() string { return string(e) }

// Wire format:
//
//	request:  [u32 method id][gob-encoded args]
//	response: [u8 status][gob-encoded reply | error string]
const (
	statusOK  byte = 0
	statusErr byte = 1
)

var errType = reflect.TypeOf((*error)(nil)).Elem()

type method struct {
	name     string
	fn       reflect.Value
	argType  reflect.Type // pointer element type
	replyTyp reflect.Type // pointer element type
}

// Server dispatches RPC requests arriving over RFP connections to
// registered methods.
type Server struct {
	rfp     *core.Server
	methods map[uint32]*method
	byName  map[string]uint32
}

// NewServer wraps an RFP server endpoint.
func NewServer(rfpSrv *core.Server) *Server {
	return &Server{
		rfp:     rfpSrv,
		methods: make(map[uint32]*method),
		byName:  make(map[string]uint32),
	}
}

// RFP returns the underlying transport server (e.g. to Accept clients).
func (s *Server) RFP() *core.Server { return s.rfp }

// Register publishes every exported method of rcvr under the given service
// name, with net/rpc's signature convention:
//
//	func (t T) MethodName(args *ArgType, reply *ReplyType) error
//
// It returns the number of methods registered.
func (s *Server) Register(name string, rcvr interface{}) (int, error) {
	v := reflect.ValueOf(rcvr)
	t := v.Type()
	n := 0
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !suitableMethod(m.Type, true) {
			continue
		}
		full := name + "." + m.Name
		if _, dup := s.byName[full]; dup {
			return n, fmt.Errorf("rpc: duplicate method %q", full)
		}
		id := methodID(full)
		if _, clash := s.methods[id]; clash {
			return n, fmt.Errorf("rpc: method id collision for %q", full)
		}
		s.methods[id] = &method{
			name:     full,
			fn:       v.Method(i),
			argType:  m.Type.In(1).Elem(),
			replyTyp: m.Type.In(2).Elem(),
		}
		s.byName[full] = id
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("rpc: %q exports no suitable methods (want func(*Args, *Reply) error)", name)
	}
	return n, nil
}

// RegisterFunc publishes a single function under an explicit name.
func (s *Server) RegisterFunc(full string, fn interface{}) error {
	v := reflect.ValueOf(fn)
	if v.Kind() != reflect.Func || !suitableMethod(v.Type(), false) {
		return fmt.Errorf("rpc: %q: want func(*Args, *Reply) error", full)
	}
	if _, dup := s.byName[full]; dup {
		return fmt.Errorf("rpc: duplicate method %q", full)
	}
	id := methodID(full)
	if _, clash := s.methods[id]; clash {
		return fmt.Errorf("rpc: method id collision for %q", full)
	}
	s.methods[id] = &method{
		name:     full,
		fn:       v,
		argType:  v.Type().In(0).Elem(),
		replyTyp: v.Type().In(1).Elem(),
	}
	s.byName[full] = id
	return nil
}

// Methods lists the registered method names.
func (s *Server) Methods() []string {
	out := make([]string, 0, len(s.byName))
	for n := range s.byName {
		out = append(out, n)
	}
	return out
}

// suitableMethod checks the net/rpc signature shape. Bound methods (from
// Value.Method) have no receiver in their type; unbound (Type.Method) do.
func suitableMethod(t reflect.Type, hasReceiver bool) bool {
	in := 0
	if hasReceiver {
		in = 1
	}
	if t.NumIn() != in+2 || t.NumOut() != 1 {
		return false
	}
	if t.In(in).Kind() != reflect.Ptr || t.In(in+1).Kind() != reflect.Ptr {
		return false
	}
	return t.Out(0) == errType
}

// methodID hashes a full method name (FNV-1a).
func methodID(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

// Handler returns a core.Handler dispatching to the registered methods,
// for core.Server.Start (or core.Serve over a thread's own connections).
func (s *Server) Handler() core.Handler {
	return func(p *sim.Proc, conn *core.Conn, req, resp []byte) int {
		out, err := s.dispatch(req)
		if err != nil {
			resp[0] = statusErr
			return 1 + copy(resp[1:], err.Error())
		}
		resp[0] = statusOK
		return 1 + copy(resp[1:], out)
	}
}

func (s *Server) dispatch(req []byte) ([]byte, error) {
	if len(req) < 4 {
		return nil, ErrBadMessage
	}
	m, ok := s.methods[binary.LittleEndian.Uint32(req)]
	if !ok {
		return nil, ErrNoSuchMethod
	}
	arg := reflect.New(m.argType)
	if err := gob.NewDecoder(bytes.NewReader(req[4:])).DecodeValue(arg); err != nil {
		return nil, fmt.Errorf("rpc: decoding %s args: %w", m.name, err)
	}
	reply := reflect.New(m.replyTyp)
	if errv := m.fn.Call([]reflect.Value{arg, reply})[0]; !errv.IsNil() {
		return nil, ServerError(errv.Interface().(error).Error())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(reply); err != nil {
		return nil, fmt.Errorf("rpc: encoding %s reply: %w", m.name, err)
	}
	return buf.Bytes(), nil
}

// Client is a stub-side handle bound to one RFP connection.
type Client struct {
	conn *core.Client
	out  []byte
	req  []byte
}

// NewClient wraps an RFP client connection (from Server.RFP().Accept).
func NewClient(conn *core.Client, maxMessage int) *Client {
	if maxMessage <= 0 {
		maxMessage = 16384
	}
	return &Client{conn: conn, out: make([]byte, maxMessage), req: make([]byte, maxMessage)}
}

// Transport exposes the underlying RFP connection (for stats/tuning).
func (c *Client) Transport() *core.Client { return c.conn }

// encodeRequest marshals [u32 method id][gob args] into c.req.
func (c *Client) encodeRequest(serviceMethod string, args interface{}) ([]byte, error) {
	if !strings.Contains(serviceMethod, ".") {
		return nil, fmt.Errorf("rpc: service/method ill-formed: %q", serviceMethod)
	}
	binary.LittleEndian.PutUint32(c.req, methodID(serviceMethod))
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(args); err != nil {
		return nil, fmt.Errorf("rpc: encoding args: %w", err)
	}
	n := copy(c.req[4:], buf.Bytes())
	if n < buf.Len() {
		return nil, fmt.Errorf("rpc: request of %d bytes exceeds message limit", buf.Len())
	}
	return c.req[:4+n], nil
}

// decodeReply unmarshals a [u8 status][gob reply | error string] response.
func (c *Client) decodeReply(msg []byte, reply interface{}) error {
	if len(msg) < 1 {
		return ErrBadMessage
	}
	if msg[0] == statusErr {
		s := string(msg[1:])
		switch s {
		case ErrNoSuchMethod.Error():
			return ErrNoSuchMethod
		default:
			return ServerError(s)
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(msg[1:])).Decode(reply); err != nil {
		return fmt.Errorf("rpc: decoding reply: %w", err)
	}
	return nil
}

// Call invokes the named remote method synchronously, exactly like
// net/rpc's Client.Call — but over RFP.
func (c *Client) Call(p *sim.Proc, serviceMethod string, args, reply interface{}) error {
	req, err := c.encodeRequest(serviceMethod, args)
	if err != nil {
		return err
	}
	if err := c.conn.Send(p, req); err != nil {
		return err
	}
	rn, err := c.conn.Recv(p, c.out)
	if err != nil {
		return err
	}
	return c.decodeReply(c.out[:rn], reply)
}

// Pending is an in-flight asynchronous call started with Go, redeemed by
// Wait.
type Pending struct {
	h      core.Handle
	method string
}

// Go starts the named remote method without waiting for the reply — the
// pipelined analogue of net/rpc's Client.Go, carried by the transport's
// request ring instead of a goroutine. Up to the connection's Depth calls
// may be in flight at once; past that Go returns core.ErrRingFull.
func (c *Client) Go(p *sim.Proc, serviceMethod string, args interface{}) (Pending, error) {
	req, err := c.encodeRequest(serviceMethod, args)
	if err != nil {
		return Pending{}, err
	}
	h, err := c.conn.Post(p, req)
	if err != nil {
		return Pending{}, err
	}
	return Pending{h: h, method: serviceMethod}, nil
}

// Wait blocks (in virtual time) until the call started by Go completes and
// decodes its reply.
func (c *Client) Wait(p *sim.Proc, pd Pending, reply interface{}) error {
	rn, err := c.conn.Poll(p, pd.h, c.out)
	if err != nil {
		return fmt.Errorf("rpc: %s: %w", pd.method, err)
	}
	return c.decodeReply(c.out[:rn], reply)
}

// Dial connects a client machine to the RPC server and returns a stub.
func Dial(s *Server, clientMachine *fabric.Machine, params core.Params, maxMessage int) (*Client, *core.Conn) {
	cli, conn := s.rfp.Accept(clientMachine, params)
	return NewClient(cli, maxMessage), conn
}
