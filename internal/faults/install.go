package faults

// Installing a fault schedule: one Injector per machine, each drawing its
// own PRNG stream, so a machine's fault trace does not depend on how its
// draws interleave with other machines'.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"rfp/internal/fabric"
	"rfp/internal/sim"
)

// Installed is the folded view of one installed schedule: the per-machine
// injectors, reported in sorted machine-name order.
type Installed struct {
	names []string // sorted machine names
	per   map[string]*Injector
}

// Install attaches a per-machine injector to every machine's NIC — stream
// seeded from seed and the machine name — and schedules each stage's crash
// windows and invalidations on the victim machine's own lane at their
// absolute times (stage start + declared offset). Machines named by any
// stage's plan must be among those passed in. Schedules run on the serial
// kernel only: a crash zeroes memory another lane may be reading
// mid-window, and a reconnect swaps server-side state from the client's
// lane, which the sharded kernel's window barrier cannot order.
func Install(seed int64, stages []Stage, machines ...*fabric.Machine) *Installed {
	if len(machines) > 0 && machines[0].Env().Sharded() {
		panic("faults: fault schedules run on the serial kernel; this environment is sharded")
	}
	inst := &Installed{per: make(map[string]*Injector, len(machines))}
	byName := make(map[string]*fabric.Machine, len(machines))
	for _, m := range machines {
		in := New(shardSeed(seed, m.Name()), stages)
		m.NIC().SetInjector(in)
		inst.per[m.Name()] = in
		inst.names = append(inst.names, m.Name())
		byName[m.Name()] = m
	}
	sort.Strings(inst.names)
	lookup := func(name string) (*fabric.Machine, *Injector) {
		m := byName[name]
		if m == nil {
			panic(fmt.Sprintf("faults: schedule names unknown machine %q", name))
		}
		return m, inst.per[name]
	}
	for i, st := range stages {
		i, base := i, st.Start
		for _, w := range st.Plan.Crashes {
			m, in := lookup(w.Machine)
			start, end, name := base.Add(sim.Duration(w.Start)), base.Add(sim.Duration(w.End)), w.Machine
			m.Shard().At(start, func() {
				in.counts[i].Crashes++
				in.noteAt(start, "crash "+name)
				m.Fail()
			})
			if w.End > w.Start {
				m.Shard().At(end, func() {
					in.counts[i].Restarts++
					in.noteAt(end, "restart "+name)
					m.Restart()
				})
			}
		}
		for _, iv := range st.Plan.Invalidations {
			m, in := lookup(iv.Machine)
			at, region, name := base.Add(sim.Duration(iv.At)), iv.Region, iv.Machine
			m.Shard().At(at, func() {
				n := m.NIC()
				if n.RegionCount() == 0 {
					return
				}
				in.counts[i].Invalidations++
				in.noteAt(at, fmt.Sprintf("invalidate %s region %d", name, region))
				n.Region(region % n.RegionCount()).Deregister()
			})
		}
	}
	return inst
}

// shardSeed derives a per-machine PRNG seed from the install seed and the
// machine name, so adding a machine never shifts another machine's stream.
func shardSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed*1_000_003 + int64(h.Sum64()&0x7fffffffffffffff)
}

// Counts sums the fault tallies across all machines.
func (inst *Installed) Counts() Counts {
	var c Counts
	for _, in := range inst.per {
		c = c.Add(in.Counts())
	}
	return c
}

// StageCounts sums stage i's tallies across all machines.
func (inst *Installed) StageCounts(i int) Counts {
	var c Counts
	for _, in := range inst.per {
		c = c.Add(in.StageCounts(i))
	}
	return c
}

// Events returns the total trace length across all machines.
func (inst *Installed) Events() int {
	n := 0
	for _, in := range inst.per {
		n += in.Events()
	}
	return n
}

// TraceString concatenates the per-machine traces in sorted machine-name
// order, each section headed by the machine name. Within a machine the
// trace is in execution order; the cross-machine interleaving is not totally
// ordered by wall time, which is exactly why the sections stay separate.
func (inst *Installed) TraceString() string {
	var b strings.Builder
	for _, name := range inst.names {
		fmt.Fprintf(&b, "[%s]\n", name)
		b.WriteString(inst.per[name].TraceString())
		b.WriteByte('\n')
	}
	return b.String()
}

// Digest folds the per-machine trace digests in sorted machine-name order —
// the replay witness, equal for any worker count on the same seed.
func (inst *Installed) Digest() uint64 {
	h := fnv.New64a()
	for _, name := range inst.names {
		fmt.Fprintf(h, "%s=%016x\n", name, inst.per[name].Digest())
	}
	return h.Sum64()
}
