// calculator: porting a net/rpc application to RFP, line for line.
//
// The paper claims RFP "supports the legacy RPC interfaces and hence
// avoids the need of redesigning application-specific data structures".
// This example makes that claim concrete: the service below is the
// standard-library net/rpc documentation example (the Arith service),
// registered and called with the same shapes — `Register(name, rcvr)`,
// `Call("Arith.Multiply", args, &reply)` — only the transport underneath is
// RFP over the simulated RDMA cluster instead of gob over TCP.
//
// Run with: go run ./examples/calculator
package main

import (
	"errors"
	"fmt"

	"rfp"
)

// Args is the net/rpc documentation example's argument type.
type Args struct {
	A, B int
}

// Quotient is the net/rpc documentation example's reply type.
type Quotient struct {
	Quo, Rem int
}

// Arith is the net/rpc documentation example service, unchanged.
type Arith struct{}

// Multiply sets *reply = A * B.
func (t Arith) Multiply(args *Args, reply *int) error {
	*reply = args.A * args.B
	return nil
}

// Divide computes quotient and remainder.
func (t Arith) Divide(args *Args, quo *Quotient) error {
	if args.B == 0 {
		return errors.New("divide by zero")
	}
	quo.Quo = args.A / args.B
	quo.Rem = args.A % args.B
	return nil
}

func main() {
	env := rfp.NewEnv(11)
	defer env.Close()
	cluster := rfp.NewCluster(env, rfp.ConnectX3(), 1)

	// Server: register the service exactly as with net/rpc.
	server := rfp.NewRPCServer(rfp.NewServer(cluster.Server, rfp.ServerConfig{
		MaxRequest: 4096, MaxResponse: 4096,
	}))
	server.RFP().AddThreads(1)
	if _, err := server.Register("Arith", Arith{}); err != nil {
		fmt.Println("register:", err)
		return
	}

	client, _ := rfp.DialRPC(server, cluster.Clients[0], rfp.DefaultParams(), 4096)
	server.RFP().Start(1, func(int) rfp.Handler { return server.Handler() })

	cluster.Clients[0].Spawn("cli", func(p *rfp.Proc) {
		// Synchronous calls, net/rpc style.
		args := &Args{A: 7, B: 8}
		var reply int
		if err := client.Call(p, "Arith.Multiply", args, &reply); err != nil {
			fmt.Println("arith error:", err)
			return
		}
		fmt.Printf("Arith: %d*%d=%d\n", args.A, args.B, reply)

		var quo Quotient
		if err := client.Call(p, "Arith.Divide", &Args{A: 17, B: 5}, &quo); err != nil {
			fmt.Println("arith error:", err)
			return
		}
		fmt.Printf("Arith: 17/5=%d remainder %d\n", quo.Quo, quo.Rem)

		// Remote errors arrive as rfp.ServerError, like net/rpc's.
		err := client.Call(p, "Arith.Divide", &Args{A: 1, B: 0}, &quo)
		var se rfp.ServerError
		if errors.As(err, &se) {
			fmt.Printf("Arith: remote error surfaced correctly: %q\n", se.Error())
		}
	})

	env.Run(rfp.Time(5 * rfp.Millisecond))

	st := client.Transport().Stats
	fmt.Printf("\ntransport: %d calls over RFP, %d remote fetches, mode %v\n",
		st.Calls, st.FetchReads, client.Transport().Mode())
}
