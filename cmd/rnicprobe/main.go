// Command rnicprobe reproduces the paper's Sec. 2.2 hardware study against
// the simulated RNIC and prints the derived parameter-selection calibration:
// the in-bound/out-bound asymmetry, its disappearance beyond ~2 KB, and the
// resulting bounds L, H (fetch size) and N (retry threshold) that RFP's
// Sec. 3.2 enumeration searches. This is the "run benchmark once per
// hardware" step a real deployment performs.
package main

import (
	"flag"
	"fmt"
	"os"

	"rfp/internal/core"
	"rfp/internal/experiments"
	"rfp/internal/hw"
)

func main() {
	var (
		nic     = flag.String("nic", "connectx3", "profile: connectx3 | connectx2 | connectx4")
		threads = flag.Int("server-threads", 16, "server threads for the N derivation")
		quick   = flag.Bool("quick", false, "reduced sweep point sets")
	)
	flag.Parse()

	var prof hw.Profile
	switch *nic {
	case "connectx3":
		prof = hw.ConnectX3()
	case "connectx2":
		prof = hw.ConnectX2()
	case "connectx4":
		prof = hw.ConnectX4()
	default:
		fmt.Fprintf(os.Stderr, "rnicprobe: unknown profile %q (have connectx3, connectx2, connectx4)\n", *nic)
		os.Exit(2)
	}

	fmt.Printf("probing %s\n\n", prof.Name)
	o := experiments.DefaultOptions()
	o.Profile = prof
	o.Quick = *quick

	for _, id := range []string{"fig3", "fig4", "fig5"} {
		res, err := experiments.Run(id, o)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Print(res)
		fmt.Println()
	}

	cal := core.Calibrate(prof, *threads)
	fmt.Println("# derived RFP calibration")
	fmt.Printf("asymmetry             %.1fx (in-bound %.2f vs out-bound %.2f MOPS at 32 B)\n",
		prof.Asymmetry(), prof.InboundPeakMOPS(32), prof.OutboundPeakMOPS(32))
	fmt.Printf("fetch-size bounds     L = %d B, H = %d B\n", cal.L, cal.H)
	fmt.Printf("retry bound           N = %d (small-read RTT %.2f us)\n", cal.N, float64(cal.ReadRTTNs)/1e3)
	fmt.Printf("candidate grid        %d (R) x %d (F, 64 B steps) pairs to enumerate\n",
		cal.N, (cal.H-cal.L)/64+1)
}
