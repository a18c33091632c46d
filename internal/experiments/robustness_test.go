package experiments

// Robustness: determinism of whole experiments, stability of the paper's
// conclusions across seeds, and differential agreement between the
// independently implemented key-value stores.

import (
	"fmt"
	"strings"
	"testing"

	"rfp/internal/core"
	"rfp/internal/fabric"
	"rfp/internal/hw"
	"rfp/internal/kvstore/kv"
	"rfp/internal/scenario"
	"rfp/internal/sim"
	"rfp/internal/workload"
)

func TestExperimentDeterminism(t *testing.T) {
	// Two identical runs must produce byte-identical results — the property
	// EXPERIMENTS.md's reproducibility claim rests on.
	assertReplays(t, "fig12")
}

// assertReplays runs id once more under the archive's options and compares
// the rendering with the memoized run's.
func assertReplays(t *testing.T, id string) {
	t.Helper()
	a := archived(t, id)
	b, err := Run(id, archiveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("%s: same seed diverged:\n%s\nvs\n%s", id, a, b)
	}
}

func TestConclusionsStableAcrossSeeds(t *testing.T) {
	// The paper's headline ordering (Jakiro > ServerReply > RDMA-Memcached,
	// by solid factors) must hold for any seed, not just the default.
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []int64{2, 17, 999} {
		o := archiveOpts()
		o.Seed = seed
		w := workload.Config{GetFraction: 0.95}
		jk := mops(point(o, PaperSpec(KindJakiro, 32), w))
		sr := mops(point(o, PaperSpec(KindServerReply, 32), w))
		if jk < 2*sr {
			t.Fatalf("seed %d: Jakiro %.2f vs ServerReply %.2f — ordering unstable", seed, jk, sr)
		}
		if jk < 4.5 || jk > 6.5 {
			t.Fatalf("seed %d: Jakiro %.2f outside calibration band", seed, jk)
		}
	}
}

func TestStoresAgreeDifferentially(t *testing.T) {
	// The same operation sequence — GETs, PUTs and read-modify-writes, all
	// through the one kv.Do — against Jakiro, ServerReply, RDMA-Memcached
	// and Pilaf must yield identical externally visible results (found/
	// not-found and value bytes), despite completely different internals:
	// EREW buckets over two transports, a locked shared table, and a
	// client-bypassed cuckoo table. The key space overshoots the preload by
	// 48 keys (inside Pilaf's capacity headroom), so misses occur too.
	const keys = 512
	ops := buildOpScript(1500, keys+48)

	systems := []StoreKind{KindJakiro, KindServerReply, KindMemcached, KindPilaf}
	outcomes := make([][]string, len(systems))
	for si, sys := range systems {
		env := sim.NewEnv(77)
		cl := fabric.NewCluster(env, hw.ConnectX3(), 1)
		b, err := scenario.BuildBackend(scenario.BackendSpec{
			Backend: string(sys), ServerThreads: 2, Keys: keys, PreloadValue: 32,
			MaxValue: 128, Params: core.DefaultParams(), DisableSpikes: true,
		}, []*fabric.Machine{cl.Server}, cl.ClientThreads(1))
		if err != nil {
			t.Fatal(err)
		}
		c := b.Conns[0]
		var log []string
		cl.Clients[0].Spawn("driver", func(p *sim.Proc) {
			out := make([]byte, 128)
			scratch := make([]byte, 128)
			for _, op := range ops {
				found, err := kv.Do(c, p, op, scratch)
				if err != nil {
					t.Errorf("%s %v: %v", sys, op.Kind, err)
					return
				}
				// Read the key back: the bytes every store must now agree on.
				n, ok, err := c.Get(p, op.Key, out)
				if err != nil {
					t.Errorf("%s read-back: %v", sys, err)
					return
				}
				log = append(log, fmt.Sprintf("%v/%v/%s", found, ok, out[:n]))
			}
		})
		env.Run(sim.Time(200 * sim.Millisecond))
		env.Close()
		if len(log) != len(ops) {
			t.Fatalf("%s: incomplete run, %d of %d ops", sys, len(log), len(ops))
		}
		outcomes[si] = log
	}

	misses := 0
	for i, op := range ops {
		if strings.HasPrefix(outcomes[0][i], "false/") {
			misses++
		}
		for si := 1; si < len(systems); si++ {
			if outcomes[si][i] != outcomes[0][i] {
				t.Fatalf("op %d (%v key=%d): %s=%q %s=%q", i, op.Kind, op.Key,
					systems[0], trunc(outcomes[0][i]), systems[si], trunc(outcomes[si][i]))
			}
		}
	}
	if misses == 0 {
		t.Fatal("the script never missed: the not-found path went unchecked")
	}
}

func trunc(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

// buildOpScript generates a deterministic mixed sequence with both hits and
// misses, updates included.
func buildOpScript(n, keys int) []workload.Op {
	gen := workload.NewGenerator(workload.Config{Keys: keys, GetFraction: 0.5, RMWFraction: 0.15}, 1234)
	ops := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		op := gen.Next()
		if op.Kind != workload.Get {
			op.ValueSize = 16 + int(op.Key)%48
		}
		ops = append(ops, op)
	}
	return ops
}
