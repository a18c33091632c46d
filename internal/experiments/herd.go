package experiments

// ext-herd and ext-loss (extensions beyond the paper's evaluation): a
// HERD/FaSST-style RPC over unreliable transports (UC request writes + UD
// response sends), the design the paper's Sec. 5 discusses — higher raw
// reply IOPS than RC server-reply, but loss handling lands on the
// application. ext-loss runs the same harness under injected datagram loss,
// measuring the retransmit/duplicate burden reliability-free designs accept.

import (
	"encoding/binary"
	"fmt"

	"rfp/internal/fabric"
	"rfp/internal/rnic"
	"rfp/internal/sim"
	"rfp/internal/stats"
)

func init() {
	register("ext-herd", "HERD-style UC/UD RPC vs RFP vs ServerReply (reliable fabric)", extHerd)
	register("ext-loss", "HERD-style RPC under datagram loss: retransmits and duplicates", extLoss)
}

// herdStats aggregates the client-visible cost of unreliability over one
// measurement window.
type herdStats struct {
	Calls       uint64
	Retransmits uint64
	Duplicates  uint64 // requests the server executed more than once
}

// runHerd drives a HERD-style echo service: requests arrive as UC writes
// into per-client slots; responses leave as UD datagrams. Clients detect
// loss by timeout and retransmit; servers detect duplicate sequence
// numbers (re-executions) for accounting. This transport is not RFP, so it
// keeps its own client and server loops rather than running on
// scenario.Drive.
func runHerd(o Options, lossProb float64, clientThreads, serverThreads int) (float64, herdStats) {
	prof := o.Profile
	prof.LossProb = lossProb
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, prof, 7)
	cl.Server.AddThreads(serverThreads)
	for i := 0; i < serverThreads; i++ {
		cl.Server.NIC().RegisterIssuer()
	}

	const slotSize = 64
	placements := cl.ClientThreads(clientThreads)
	region := cl.Server.NIC().RegisterMemory(slotSize * len(placements))
	srvUD := make([]*rnic.UD, serverThreads)
	for i := range srvUD {
		srvUD[i] = rnic.NewUD(cl.Server.NIC())
	}

	type conn struct {
		off     int
		ud      *rnic.UD
		lastSeq uint32
	}
	conns := make([]*conn, len(placements))
	var st herdStats
	ops := make([]uint64, len(placements))

	for i, pl := range placements {
		cliUD := rnic.NewUD(pl.Machine.NIC())
		conns[i] = &conn{off: i * slotSize, ud: cliUD}
		uc, _ := rnic.ConnectUC(pl.Machine.NIC(), cl.Server.NIC())
		i := i
		h := region.Handle()
		pl.Machine.Spawn("herd-cli", func(p *sim.Proc) {
			req := make([]byte, 40)
			seq := uint32(0)
			for {
				seq++
				binary.LittleEndian.PutUint32(req[0:4], 1) // valid
				binary.LittleEndian.PutUint32(req[4:8], seq)
				if err := uc.Write(p, h, conns[i].off, req); err != nil {
					panic(err)
				}
				// Wait for the UD response; on timeout, retransmit — the
				// "subtle problems" RC spares its users.
				for {
					deadline := p.Now().Add(sim.Micros(15))
					got := false
					for p.Now() < deadline {
						if msg, ok := cliUD.TryRecv(p); ok {
							if binary.LittleEndian.Uint32(msg) == seq {
								got = true
								break
							}
							continue // stale response from a retransmit
						}
						p.Sleep(sim.Duration(200))
					}
					if got {
						break
					}
					st.Retransmits++
					if err := uc.Write(p, h, conns[i].off, req); err != nil {
						panic(err)
					}
				}
				ops[i]++
			}
		})
	}

	// Server threads poll slot ranges and reply via UD.
	per := (len(placements) + serverThreads - 1) / serverThreads
	for t := 0; t < serverThreads; t++ {
		lo, hi := t*per, (t+1)*per
		if hi > len(placements) {
			hi = len(placements)
		}
		if lo >= hi {
			continue
		}
		ud := srvUD[t]
		cl.Server.Spawn("herd-srv", func(p *sim.Proc) {
			resp := make([]byte, 32)
			for {
				found := false
				for i := lo; i < hi; i++ {
					c := conns[i]
					slot := region.Buf[c.off : c.off+slotSize]
					if binary.LittleEndian.Uint32(slot[0:4]) != 1 {
						continue
					}
					seq := binary.LittleEndian.Uint32(slot[4:8])
					binary.LittleEndian.PutUint32(slot[0:4], 0) // consume
					found = true
					if seq == c.lastSeq {
						st.Duplicates++ // a retransmitted request re-executed
					}
					c.lastSeq = seq
					cl.Server.ComputeNs(p, 150) // request processing
					binary.LittleEndian.PutUint32(resp[0:4], seq)
					if err := ud.SendTo(p, c.ud, resp); err != nil {
						panic(err)
					}
				}
				if !found {
					cl.Server.ComputeNs(p, int64(40*(hi-lo)))
				}
			}
		})
	}

	// Every count covers the measurement window only, as the MOPS does.
	count := sumOf(ops)
	env.Run(sim.Time(o.Warmup))
	warm := st
	warm.Calls = count()
	env.Run(env.Now().Add(o.Window))
	win := herdStats{
		Calls:       count() - warm.Calls,
		Retransmits: st.Retransmits - warm.Retransmits,
		Duplicates:  st.Duplicates - warm.Duplicates,
	}
	return stats.MOPS(win.Calls, int64(o.Window)), win
}

func extHerd(o Options) Result {
	herd, _ := runHerd(o, 0, 35, 6)
	// The RC lines answer the same 150 ns, 32 B echo: Jakiro GETs of 32 B
	// values.
	rfp := mops(point(o, rpcSpec(KindJakiro, 6, 32, 150), getLoad))
	sr := mops(point(o, rpcSpec(KindServerReply, 6, 32, 150), getLoad))
	rows := []string{
		fmt.Sprintf("%-24s%10s", "paradigm", "MOPS"),
		fmt.Sprintf("%-24s%10.3f", "RFP (RC)", rfp),
		fmt.Sprintf("%-24s%10.3f", "HERD-style (UC+UD)", herd),
		fmt.Sprintf("%-24s%10.3f", "server-reply (RC)", sr),
	}
	return Result{
		ID: "ext-herd", Title: "unreliable-transport RPC vs RFP (lossless fabric)",
		Rows: rows,
		Notes: []string{
			"UD replies are ~2x cheaper to issue than RC writes, lifting HERD-style RPC above RC server-reply (paper Sec. 5)",
			"RFP still leads: its replies cost the server only in-bound operations",
		},
	}
}

func extLoss(o Options) Result {
	probs := []float64{0, 1e-4, 1e-3, 1e-2}
	tput := &stats.Series{Label: "MOPS", XLabel: "loss probability", YLabel: "MOPS"}
	rows := []string{fmt.Sprintf("%-14s%10s%14s%14s", "loss prob", "MOPS", "retransmits", "re-executes")}
	for _, pr := range probs {
		mops, st := runHerd(o, pr, 35, 6)
		tput.Add(pr, mops)
		rows = append(rows, fmt.Sprintf("%-14g%10.3f%14d%14d", pr, mops, st.Retransmits, st.Duplicates))
	}
	return Result{
		ID: "ext-loss", Title: "HERD-style RPC under datagram loss",
		Series: []*stats.Series{tput},
		Rows:   rows,
		Notes: []string{
			"every lost datagram costs a full timeout; duplicated executions must be tolerated by the application — the burden RC (and hence RFP) carries in hardware",
		},
	}
}
