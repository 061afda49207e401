package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/workload"
)

// These tests are the sharded engine's acceptance gate: partitioning a
// topology over a conservative-parallel ShardGroup is a pure
// performance change, so every calibrated experiment must produce
// byte-identical results at any shard count. Each fingerprint includes
// the final virtual clock and the behavioural counters, compared
// exactly (no tolerance) against the serial inline path.

var shardCounts = []int{1, 2, 4}

func requireInvariant(t *testing.T, name string, run func(shards int) string) {
	t.Helper()
	want := run(1)
	for _, k := range shardCounts[1:] {
		if got := run(k); got != want {
			t.Errorf("%s diverges at shards=%d:\nserial:  %s\nsharded: %s", name, k, want, got)
		}
	}
}

// TestLatencyShardInvariance pins Table 1's apparatus: the ping-pong
// crosses the shard boundary twice per round, so every cross-shard
// delivery stamp is load-bearing for the measured RTT. The last case,
// 1024-byte UDP/IP at seed 1 over eight rounds, has link deliveries
// that tie with other events at one instant; it agrees across shard
// counts only because every link, local ones included, tie-breaks by
// its channel id.
func TestLatencyShardInvariance(t *testing.T) {
	ties := Options{Seed: 1, Driver: driver.Config{Cache: driver.CacheLazy}}
	cases := []struct {
		opt    Options
		kind   ProtoKind
		rounds int
	}{
		{alOptions(), ATMRaw, 3},
		{alOptions(), UDPIP, 3},
		{ties, UDPIP, 8},
	}
	requireInvariant(t, "latency", func(shards int) string {
		out := ""
		for _, c := range cases {
			opt := c.opt
			opt.Shards = shards
			tb := NewTestbed(opt)
			d, err := tb.RunLatency(c.kind, 1024, c.rounds)
			if err != nil {
				t.Fatalf("RunLatency(%v, shards=%d): %v", c.kind, shards, err)
			}
			out += fmt.Sprintf("%v rtt=%v now=%v ab=%+v ba=%+v\n",
				c.kind, d, tb.Now(), tb.AB.Stats(), tb.BA.Stats())
			tb.Shutdown()
		}
		return out
	})
}

// TestFigure3ShardInvariance pins the receive-throughput apparatus.
// Fictitious traffic never leaves host B's shard; the test checks that
// the group scheduler itself (windows, clock advance, horizon) is
// invisible to a single-shard workload.
func TestFigure3ShardInvariance(t *testing.T) {
	requireInvariant(t, "figure3", func(shards int) string {
		opt := alOptions()
		opt.Board = board.Config{RxDMA: board.DoubleCell}
		opt.Shards = shards
		tb := NewTestbed(opt)
		defer tb.Shutdown()
		mbps, err := tb.RunReceiveThroughput(16384, 6)
		if err != nil {
			t.Fatalf("RunReceiveThroughput(shards=%d): %v", shards, err)
		}
		return fmt.Sprintf("mbps=%v now=%v board=%+v", mbps, tb.Now(), tb.B.Board.Stats())
	})
}

// TestFigure4ShardInvariance pins the isolated-transmit apparatus
// (no links at all, so the group runs with no registered lookahead).
func TestFigure4ShardInvariance(t *testing.T) {
	requireInvariant(t, "figure4", func(shards int) string {
		opt := dsOptions()
		opt.TxIsolated = true
		opt.Shards = shards
		tb := NewTestbed(opt)
		defer tb.Shutdown()
		mbps, err := tb.RunTransmitThroughput(16384, 6)
		if err != nil {
			t.Fatalf("RunTransmitThroughput(shards=%d): %v", shards, err)
		}
		cells, bytes := tb.SinkStats()
		return fmt.Sprintf("mbps=%v now=%v cells=%d bytes=%d", mbps, tb.Now(), cells, bytes)
	})
}

// TestFanInShardInvariance pins the switched-cluster incast: with the
// fabric on its own shard and three client nodes spread over the rest,
// every cell crosses two shard boundaries and the server's per-client
// accounting depends on the exact merged delivery order.
func TestFanInShardInvariance(t *testing.T) {
	requireInvariant(t, "fanin", func(shards int) string {
		opt := dsOptions()
		opt.Shards = shards
		cl := NewCluster(opt, 4)
		defer cl.Shutdown()
		res, err := cl.RunFanIn(workload.FanIn{
			Clients:      3,
			MessageBytes: 2048,
			Messages:     6,
			Gap:          500 * time.Microsecond,
			Stagger:      100 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("RunFanIn(shards=%d): %v", shards, err)
		}
		return fmt.Sprintf("%+v now=%v", res, cl.Now())
	})
}

// TestFanInFaultShardInvariance exercises the paced cross-shard link
// path: a fault plane on the fabric links (burst loss, corruption,
// duplication) forces every link onto the per-cell pacing machine,
// whose injector draws come from partition-independent site-derived
// streams — so even the lossy run must be byte-identical at any shard
// count.
func TestFanInFaultShardInvariance(t *testing.T) {
	requireInvariant(t, "fanin-fault", func(shards int) string {
		opt := dsOptions()
		opt.Shards = shards
		opt.Link.Fault = &fault.Config{
			Loss:        fault.BurstLoss(0.002, 2),
			CorruptProb: 0.001,
			DupProb:     0.001,
		}
		cl := NewCluster(opt, 4)
		defer cl.Shutdown()
		res, err := cl.RunFanIn(workload.FanIn{
			Clients:      3,
			MessageBytes: 2048,
			Messages:     6,
			Gap:          500 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("RunFanIn(shards=%d): %v", shards, err)
		}
		// Corrupt deliveries are possible here (UDP checksum off), but
		// they are deterministic, so they belong in the fingerprint.
		return fmt.Sprintf("%+v now=%v fault=%+v", res, cl.Now(), cl.Fabric.FaultStats())
	})
}

// TestDeriveRandSitesPartitionIndependent pins the site sets: the same
// topology must derive exactly the same DeriveRand sites — collision-
// free by the group's duplicate panic — no matter how it is sharded,
// because every derived stream is a pure function of (seed, site).
func TestDeriveRandSitesPartitionIndependent(t *testing.T) {
	sites := func(shards int) string {
		opt := dsOptions()
		opt.Shards = shards
		opt.Link.Fault = &fault.Config{CorruptProb: 0.001}
		cl := NewCluster(opt, 4)
		defer cl.Shutdown()
		if _, err := cl.RunFanIn(workload.FanIn{Clients: 3, MessageBytes: 1024, Messages: 2}); err != nil {
			t.Fatalf("RunFanIn(shards=%d): %v", shards, err)
		}
		return fmt.Sprintf("%q", cl.DerivedSites())
	}
	want := sites(1)
	if want == `[]` {
		t.Fatal("fault-injected cluster derived no sites — the test covers nothing")
	}
	for _, k := range shardCounts[1:] {
		if got := sites(k); got != want {
			t.Errorf("derived sites differ at shards=%d:\nserial:  %s\nsharded: %s", k, want, got)
		}
	}
}

// TestShardedClusterNoGoroutineLeak: the shard workers, every engine's
// procs, and the cross-link machinery must all be gone after Shutdown
// (the parexp leak-check pattern).
func TestShardedClusterNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		opt := dsOptions()
		opt.Shards = 4
		cl := NewCluster(opt, 4)
		if _, err := cl.RunFanIn(workload.FanIn{Clients: 3, MessageBytes: 1024, Messages: 2}); err != nil {
			t.Fatalf("RunFanIn: %v", err)
		}
		cl.Shutdown()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Shutdown", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardsRejectEngineRandConfigs: a config drawing per-cell
// randomness from the shared engine RNG must refuse to shard loudly —
// the draws are partition-dependent, and silence here would mean
// silently divergent results.
func TestShardsRejectEngineRandConfigs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster(Shards=2, LossRate>0) did not panic")
		}
	}()
	opt := dsOptions()
	opt.Shards = 2
	opt.Link.LossRate = 0.01
	NewCluster(opt, 2)
}

// TestShardClampAndPlan: shard counts clamp to the component count and
// the fabric always sits alone on shard 0 — the invariant that keeps
// the cross-link set identical at every shard count.
func TestShardClampAndPlan(t *testing.T) {
	opt := dsOptions()
	opt.Shards = 64
	cl := NewCluster(opt, 3)
	defer cl.Shutdown()
	p := cl.Plan()
	if p.Shards != 4 {
		t.Errorf("3-node cluster with Shards=64: got %d shards, want 4", p.Shards)
	}
	if p.FabricShard != 0 {
		t.Errorf("fabric on shard %d, want 0", p.FabricShard)
	}
	for i, s := range p.NodeShard {
		if s == p.FabricShard {
			t.Errorf("node %d shares shard %d with the fabric", i, s)
		}
	}
}
