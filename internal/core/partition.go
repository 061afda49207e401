package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// ShardPlan maps a topology onto the engines of a sim.ShardGroup.
//
// The plan keeps one invariant that makes results independent of the
// shard count: the switch fabric always occupies shard 0 alone, and
// every node lands on a shard ≥ 1. Every node↔switch link is therefore
// a cross-shard link at ANY shard count ≥ 2, so the set of cross-shard
// channels — and with it the construction-order channel ids that
// tie-break the canonical event order — is identical whether the nodes
// spread over one shard or seven. Raising the shard count only changes
// which engine executes a node's events, never how they are stamped,
// which is why fig3/table1/fan-in are byte-identical at shards=1/2/4.
type ShardPlan struct {
	Shards      int   // engines in the group
	FabricShard int   // shard running the switch (clusters only)
	NodeShard   []int // node index → shard
}

// clusterPlan partitions an n-node switched cluster over up to
// requested shards: the fabric alone on shard 0, node i on shard
// 1 + i mod (k-1). requested is clamped to n+1 (more shards than
// components would leave engines permanently idle); a request of 1 or
// less puts everything on one shard.
func clusterPlan(requested, nodes int) ShardPlan {
	p := ShardPlan{Shards: 1, FabricShard: 0, NodeShard: make([]int, nodes)}
	if requested <= 1 {
		return p
	}
	p.Shards = min(requested, nodes+1)
	for i := range p.NodeShard {
		p.NodeShard[i] = 1 + i%(p.Shards-1)
	}
	return p
}

// testbedPlan partitions the two-node back-to-back testbed: host A on
// shard 0, host B on shard 1. There is no fabric, so two shards is
// always the whole plan; any higher request clamps to 2.
func testbedPlan(requested int) ShardPlan {
	if requested <= 1 {
		return ShardPlan{Shards: 1, FabricShard: -1, NodeShard: []int{0, 0}}
	}
	return ShardPlan{Shards: 2, FabricShard: -1, NodeShard: []int{0, 1}}
}

// Plan reports how the cluster's components were mapped onto shards
// (Shards == 1 for a serial cluster).
func (cl *Cluster) Plan() ShardPlan { return cl.plan }

// EngFor returns the engine node i runs on.
func (cl *Cluster) EngFor(node int) *sim.Engine { return cl.engs[node] }

// Go spawns a simulated process on node i's engine. Experiment drivers
// must place each proc on the shard of the node whose state it touches;
// cross-node interaction happens only through the links.
func (cl *Cluster) Go(node int, name string, fn func(p *sim.Proc)) *sim.Proc {
	return cl.EngFor(node).Go(name, fn)
}

// Run executes the simulation to quiescence — inline for a 1-shard
// cluster, the conservative window loop for a sharded one — and returns
// the virtual time reached.
func (cl *Cluster) Run() sim.Time { return cl.Group.Run() }

// RunUntil executes until the virtual clock would pass t.
func (cl *Cluster) RunUntil(t sim.Time) sim.Time { return cl.Group.RunUntil(t) }

// Now returns the current virtual time (the latest shard clock, for a
// sharded cluster).
func (cl *Cluster) Now() sim.Time { return cl.Group.Now() }

// Events returns the cumulative executed-event count across the whole
// simulation — the denominator for events/sec measurements.
func (cl *Cluster) Events() uint64 { return cl.Group.Events() }

// DerivedSites returns every DeriveRand site name the simulation has
// derived, sorted — identical across shard counts by construction, and
// pinned so by the partition-independence regression tests.
func (cl *Cluster) DerivedSites() []string { return cl.Group.DerivedSites() }

// registerEngineDiag registers the execution substrate's telemetry.
// Every metric here is diagnostic (SampleDiag): event counts depend on
// how the topology is partitioned, and the shard group's stall time is
// wall clock — none of it may appear in a canonical snapshot, which
// must be byte-identical at any shard count.
func (cl *Cluster) registerEngineDiag() {
	r := cl.Opt.Metrics
	if r == nil {
		return
	}
	g := cl.Group
	r.SampleDiag("engine/events", metrics.KindCounter, func() int64 { return int64(g.Events()) })
	r.SampleDiag("engine/windows", metrics.KindCounter, func() int64 { return int64(g.Stats().Windows) })
	r.SampleDiag("engine/cross_shard_injected", metrics.KindCounter, func() int64 { return int64(g.Stats().Injected) })
	r.SampleDiag("engine/max_merge_depth", metrics.KindHighWater, func() int64 { return int64(g.Stats().MaxMergeDepth) })
	r.SampleDiag("engine/barrier_stall_ns", metrics.KindCounter, func() int64 { return g.Stats().BarrierStallNS })
	for i := 0; i < cl.plan.Shards; i++ {
		e := g.Engine(i)
		r.SampleDiag(fmt.Sprintf("engine/shard%d/events", i), metrics.KindCounter, func() int64 { return int64(e.Events()) })
	}
}
