package experiments

// Regression anchors for the telemetry layer:
//
//   - Recording costs host time only: an experiment run with telemetry on
//     prints its archived document plus the telemetry lines, and nothing
//     else moves.
//   - Snapshot() must be safe to call from another goroutine while the
//     simulation mutates the recorder through SetDepth churn and Close —
//     the race detector is the assertion.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

// TestTelemetryOnMatchesArchive runs each experiment with a telemetry branch
// under the archive's options with Telemetry set. The document without its
// "telemetry" key must equal the archived line, and the telemetry lines must
// be there, fig9's and fig10's in sweep order.
func TestTelemetryOnMatchesArchive(t *testing.T) {
	lines, _ := archiveLines(t)
	for _, id := range []string{"fig9", "fig10", "ext-pipeline", "ext-adaptive-depth"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			o := archiveOpts()
			o.Telemetry = true
			res, err := Run(id, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Telemetry) == 0 {
				t.Fatalf("%s: telemetry on, but the result has no telemetry lines", id)
			}
			checkTelemetryOrder(t, res)
			res.Telemetry = nil
			if got, want := encodeLine(t, res, o), lines[id]; !bytes.Equal(got, want) {
				t.Fatalf("%s: recording telemetry moved the document: %s", id, firstDiff(got, want))
			}
		})
	}
}

// checkTelemetryOrder pins the shape of the swept figures' telemetry tables
// by each row's leading fields: fig9 is one header, then per P in P order a
// remote-fetching row before a server-reply row; fig10 is one row per thread
// count, in order. Rows that follow the sweep x-major keep this shape.
func checkTelemetryOrder(t *testing.T, res Result) {
	t.Helper()
	var lead int
	var want []string
	switch res.ID {
	case "fig9":
		lead, want = 2, []string{"P(us) paradigm"}
		for _, p := range res.Series[0].X {
			want = append(want, fmt.Sprintf("%g remote-fetching", p), fmt.Sprintf("%g server-reply", p))
		}
	case "fig10":
		lead = 1
		for _, n := range res.Series[0].X {
			want = append(want, fmt.Sprintf("threads=%g", n))
		}
	default:
		return
	}
	var got []string
	for _, row := range res.Telemetry {
		f := strings.Fields(row)
		got = append(got, strings.Join(f[:min(lead, len(f))], " "))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s telemetry rows lead with\n  %q\nwant\n  %q", res.ID, got, want)
	}
}

// TestSnapshotConcurrentWithSetDepthAndClose hammers Snapshot from a reader
// goroutine while the simulated client records calls, churns its ring depth
// through the quiesce path, and finally closes. Run under -race in CI; any
// unsynchronized recorder field shows up as a detector report.
func TestSnapshotConcurrentWithSetDepthAndClose(t *testing.T) {
	env := sim.NewEnv(5)
	defer env.Close()
	cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
	srv := core.NewServer(cl.Server, core.ServerConfig{MaxRequest: 64, MaxResponse: 64})
	srv.AddThreads(1)
	params := core.DefaultParams()
	params.Depth = 1
	params.MaxDepth = 8
	cli, conn := srv.Accept(cl.Clients[0], params)
	cl.Clients[0].AddThreads(1)

	rec := telemetry.New(telemetry.Config{SpanEvents: 256})
	cli.SetRecorder(rec)

	cl.Server.Spawn("srv", func(p *sim.Proc) {
		core.Serve(p, []*core.Conn{conn}, func(p *sim.Proc, c *core.Conn, req, resp []byte) int {
			return copy(resp, req)
		})
	})
	cl.Clients[0].Spawn("cli", func(p *sim.Proc) {
		req := []byte("abcdefgh")
		out := make([]byte, 64)
		var hs []core.Handle
		depths := []int{1, 4, 2, 8, 1, 3}
		for i := 0; ; i++ {
			if i%50 == 0 {
				cli.SetDepth(depths[(i/50)%len(depths)])
			}
			// After a shrink, Post reports a full ring until the claims
			// below bring the calls in flight under the new depth.
			for len(hs) < cli.Depth() {
				h, err := cli.Post(p, req)
				if err == core.ErrRingFull {
					break
				}
				if err != nil {
					panic(err)
				}
				hs = append(hs, h)
			}
			if _, err := cli.Poll(p, hs[0], out); err != nil {
				panic(err)
			}
			hs = hs[:copy(hs, hs[1:])]
			if i == 1000 {
				for len(hs) > 0 {
					if _, err := cli.Poll(p, hs[0], out); err != nil {
						panic(err)
					}
					hs = hs[:copy(hs, hs[1:])]
				}
				if err := cli.Close(p); err != nil {
					panic(err)
				}
				return
			}
		}
	})

	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var reads int
		for !stop.Load() {
			s := rec.Snapshot()
			if s.Calls > 0 && s.Writes == 0 {
				t.Error("snapshot saw calls without writes")
				return
			}
			_ = s.RoundTripsPerCall()
			reads++
			// Yield between snapshots: a hot loop starves the simulation's
			// cooperative goroutine handoffs without adding any detection
			// power — the race detector only needs overlapping accesses.
			time.Sleep(200 * time.Microsecond)
		}
		if reads == 0 {
			t.Error("reader goroutine never snapshotted")
		}
	}()

	env.Run(sim.Time(50 * sim.Millisecond))
	stop.Store(true)
	<-readerDone

	s := rec.Snapshot()
	if s.Calls < 1000 {
		t.Fatalf("Calls = %d, want >= 1000", s.Calls)
	}
	if s.Total.Count != s.Calls {
		t.Fatalf("histogram count %d != calls %d", s.Total.Count, s.Calls)
	}
	if s.PeakOccupancy() < 2 {
		t.Fatalf("peak occupancy %d, want >= 2 (depth churn reached 8)", s.PeakOccupancy())
	}
}
