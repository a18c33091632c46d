package experiments

// Regression anchors for the telemetry layer:
//
//   - The archived BENCH_pipeline.json must be reproduced byte for byte by a
//     telemetry-off run: recording costs host time only, and the JSON
//     encoding (now exported as ToJSON) must not have drifted.
//   - Snapshot() must be safe to call from another goroutine while the
//     simulation mutates the recorder through SetDepth churn and Close —
//     the race detector is the assertion.

import (
	"bytes"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/sim"
	"rfp/internal/telemetry"
)

// TestBenchPipelineArchiveByteIdentical re-runs the archived configuration
// (rfpbench -quick -stable -json ext-pipeline ext-adaptive-depth) in-process
// and compares the NDJSON bytes against BENCH_pipeline.json.
func TestBenchPipelineArchiveByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full archived runs in -short mode")
	}
	want, err := os.ReadFile("../../BENCH_pipeline.json")
	if err != nil {
		t.Fatalf("reading archive: %v", err)
	}
	o := DefaultOptions()
	o.Quick = true
	// Telemetry deliberately left false: the archive predates the telemetry
	// layer, and recording-off must not perturb a single byte.

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, id := range []string{"ext-pipeline", "ext-adaptive-depth"} {
		res, err := Run(id, o)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if err := enc.Encode(ToJSON(res, o, 0)); err != nil {
			t.Fatalf("encoding %s: %v", id, err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("telemetry-off run diverged from BENCH_pipeline.json\ngot %d bytes, want %d bytes\ngot:\n%s",
			buf.Len(), len(want), buf.String())
	}
}

// TestBenchKVArchiveByteIdentical pins the figures RunKV serves
// (rfpbench -quick -stable -json fig10 fig11 fig13 fig16 table3 — all four
// stores, throughput, latency CDFs and the retry table) against
// BENCH_kv.json, archived from the commit before the stores moved onto
// scenario.BuildBackend.
func TestBenchKVArchiveByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full archived runs in -short mode")
	}
	want, err := os.ReadFile("../../BENCH_kv.json")
	if err != nil {
		t.Fatalf("reading archive: %v", err)
	}
	o := DefaultOptions()
	o.Quick = true
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, id := range []string{"fig10", "fig11", "fig13", "fig16", "table3"} {
		res, err := Run(id, o)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if err := enc.Encode(ToJSON(res, o, 0)); err != nil {
			t.Fatalf("encoding %s: %v", id, err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fresh run diverged from BENCH_kv.json\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestBenchSimArchiveByteIdentical guards the kernel-throughput archive
// (rfpbench -quick -json ext-scaleout > BENCH_sim.json). The archive is a
// real timed run, so its wall_time_ms and events_per_sec fields are
// measurements from the machine that recorded it; every other field —
// series, rows, and sim_events, the kernel's deterministic event count — is
// pinned byte for byte. A drift in sim_events means the kernel retired a
// different event schedule: a real behavior change, to be re-archived in the
// same PR when intentional.
func TestBenchSimArchiveByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full archived runs in -short mode")
	}
	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatalf("reading archive: %v", err)
	}
	var archived JSONResult
	if err := json.Unmarshal(raw, &archived); err != nil {
		t.Fatalf("decoding archive: %v", err)
	}
	if archived.WallTimeMs <= 0 || archived.EventsPerSec <= 0 {
		t.Fatalf("archive must carry a real measurement: wall_time_ms=%v events_per_sec=%v",
			archived.WallTimeMs, archived.EventsPerSec)
	}
	archived.WallTimeMs, archived.EventsPerSec = 0, 0

	o := DefaultOptions()
	o.Quick = true
	res, err := Run("ext-scaleout", o)
	if err != nil {
		t.Fatalf("Run(ext-scaleout): %v", err)
	}
	var got, want bytes.Buffer
	if err := json.NewEncoder(&got).Encode(ToJSON(res, o, 0)); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&want).Encode(archived); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("fresh run diverged from BENCH_sim.json (wall fields excluded)\ngot:\n%s\nwant:\n%s",
			got.String(), want.String())
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
			// Drain so deferred depth changes actually apply.
			if cli.PendingDepth() != 0 {
				for len(hs) > 0 {
					if _, err := cli.Poll(p, hs[0], out); err != nil {
						panic(err)
					}
					hs = hs[:copy(hs, hs[1:])]
				}
				continue
			}
			for len(hs) < cli.Depth() {
				h, err := cli.Post(p, req)
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
