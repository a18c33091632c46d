package experiments

// ext-farm (extension): a FaRM-style GET (one wide Hopscotch-neighborhood
// read per lookup) versus Jakiro, reproducing the paper's Sec. 5 trade-off:
// the wide read wins raw small-value lookups but multiplies bytes moved, so
// it collapses first as values grow.

import (
	"rfp/internal/fabric"
	"rfp/internal/sim"
	"rfp/internal/stats"
	"rfp/internal/workload"
)

func init() {
	register("ext-farm", "FaRM-style wide-read GET vs Jakiro across value sizes", extFarm)
}

// farmCell is the layout of one Hopscotch cell: 16 B key + value.
const farmNeighborhood = 6 // "N is usually larger than 6" (paper Sec. 5)

// extFarm measures a FaRM-style GET — one RDMA Read covering the whole
// N-cell neighborhood — against Jakiro, across value sizes.
func extFarm(o Options) Result {
	sizes := o.pick([]int{32, 128, 512, 1024}, []int{32, 512})
	farm := &stats.Series{Label: "FaRM-style", XLabel: "value size (B)", YLabel: "MOPS"}
	jk := &stats.Series{Label: "Jakiro"}
	bytesPer := &stats.Series{Label: "FaRM-bytes/GET"}
	for _, sz := range sizes {
		farm.Add(float64(sz), runFarm(o, sz))
		jk.Add(float64(sz), mops(point(o, coveringSpec(sz), sizedLoad(sz))))
		bytesPer.Add(float64(sz), float64(farmNeighborhood*(workload.KeySize+sz)))
	}
	return Result{
		ID: "ext-farm", Title: "FaRM-style neighborhood reads vs Jakiro (95% GET)",
		Series: []*stats.Series{farm, jk, bytesPer},
		Notes: []string{
			"a client must fetch N*(Sk+Sv) bytes per lookup; raw small-value lookups beat Jakiro, but bandwidth waste grows N-fold with the value size (paper Sec. 5)",
		},
	}
}

// runFarm drives 35 clients doing one neighborhood read per GET against a
// server-resident cell array (writes go through a tiny server-reply
// channel like FaRM's, but the workload here is 95% GET so reads dominate).
// The reads are one-sided, not RFP calls, so the loop is its own rather
// than scenario.Drive's.
func runFarm(o Options, valueSize int) float64 {
	env := sim.NewEnv(o.Seed)
	defer env.Close()
	cl := fabric.NewCluster(env, o.Profile, 7)
	const keys = 20_000
	cell := workload.KeySize + valueSize
	region := cl.Server.NIC().RegisterMemory((keys + farmNeighborhood) * cell)
	// Preload: key k lives in cell k (identity placement keeps the harness
	// focused on the data-path cost, which is what differs from Jakiro).
	kbuf := make([]byte, workload.KeySize)
	for k := uint64(0); k < keys; k++ {
		off := int(k) * cell
		copy(region.Buf[off:], workload.EncodeKey(kbuf, k))
		workload.FillValue(region.Buf[off+workload.KeySize:off+cell], k, 0)
	}
	h := region.Handle()
	placements := cl.ClientThreads(35)
	ops := make([]uint64, len(placements))
	for i, pl := range placements {
		qp, _ := fabric.Connect(pl.Machine, cl.Server)
		i := i
		gen := workload.NewGenerator(workload.Config{Keys: keys, GetFraction: 1}, o.Seed*7+int64(i))
		pl.Machine.Spawn("farm-cli", func(p *sim.Proc) {
			buf := make([]byte, farmNeighborhood*cell)
			for {
				op := gen.Next()
				off := int(op.Key) * cell
				if err := qp.Read(p, h, off, buf); err != nil {
					panic(err)
				}
				// Locate the key within the fetched neighborhood.
				found := false
				for c := 0; c < farmNeighborhood; c++ {
					if workload.DecodeKey(buf[c*cell:]) == op.Key {
						found = true
						break
					}
				}
				if !found {
					panic("farm: preloaded key missing from its neighborhood")
				}
				ops[i]++
			}
		})
	}
	return measureMOPS(env, o, sumOf(ops))
}
