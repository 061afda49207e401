package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// unpacedCollapse is the headline workload: the default 8×16KB fan-in
// with all pacing stripped — every client blasts its whole burst at
// the switch at once, the regime that collapses the unreliable stack.
func unpacedCollapse() workload.FanIn {
	w := workload.DefaultFanIn()
	w.Gap = 0
	w.Stagger = 0
	return w
}

// TestIncastAdaptiveUnpacedLossless is the tentpole acceptance bar:
// the adaptive transport (RTT-estimated timer, AIMD window, ECN from
// the fabric) delivers every message of the unpaced 8:1 incast through
// the default 256-cell switch queue, byte-verified at the server.
func TestIncastAdaptiveUnpacedLossless(t *testing.T) {
	res, err := RunIncastRDP(Options{FabricMarkThreshold: 64},
		IncastRDP{Workload: unpacedCollapse(), Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless() {
		t.Fatalf("adaptive incast not lossless: shortfall=%d corrupt=%d (delivered %d/%d)",
			res.Shortfall, res.Corrupt, res.Delivered, res.Sent)
	}
	if res.Delivered != 64 {
		t.Errorf("delivered %d, want 64", res.Delivered)
	}
	for _, c := range res.Clients {
		if !c.Acked {
			t.Errorf("client %d did not drain its window", c.Client)
		}
	}
	if res.Retransmits == 0 {
		t.Error("no retransmits — the queue never overflowed, so this is not the collapse regime")
	}
}

// TestIncastLegacyCollapses documents the problem the adaptive
// transport solves: the fixed-timer go-back-N sender, in the same
// regime, retransmits into the full queue in lockstep with its peers
// and cannot deliver the workload. The horizon is bounded — the
// interesting fact is the shortfall, not how long the storm grinds.
func TestIncastLegacyCollapses(t *testing.T) {
	res, err := RunIncastRDP(Options{FabricMarkThreshold: 64},
		IncastRDP{Workload: unpacedCollapse(), Adaptive: false, Horizon: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall == 0 {
		t.Fatal("legacy transport delivered the unpaced incast — the collapse scenario no longer collapses, update the experiment")
	}
	if res.SwitchDropped == 0 {
		t.Error("no switch drops under 8:1 unpaced fan-in")
	}
}

// TestIncastShardInvariance pins the reproducibility contract: the
// same incast run, serial and at 2 and 4 shards, produces identical
// results down to every per-client counter and timing-derived float.
// This is what the stamped-link tie-break (atm.Link xid) buys — the
// unpaced fan-in ties constantly at the fabric, and without a
// partition-independent order the runs diverge.
func TestIncastShardInvariance(t *testing.T) {
	w := workload.FanIn{Clients: 8, MessageBytes: 4096, Messages: 8}
	for _, adaptive := range []bool{true, false} {
		var base *IncastResult
		for _, shards := range []int{1, 2, 4} {
			opt := Options{Shards: shards, FabricQueueCells: 1024, FabricMarkThreshold: 128}
			res, err := RunIncastRDP(opt, IncastRDP{
				Workload: w, Adaptive: adaptive, Horizon: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Errorf("adaptive=%v shards=%d diverges from serial:\n serial: %+v\n sharded: %+v",
					adaptive, shards, base, res)
			}
		}
	}
}

// TestIncastPerCellParity pins the fabric-machine contract end to end
// through the adaptive transport: the train-forwarding fast path and
// the per-cell queue/arbiter machine mark, drop, and forward
// identically, so the ECN feedback loop (mark → echo → backoff) and
// every delivery timing match byte for byte.
func TestIncastPerCellParity(t *testing.T) {
	w := workload.FanIn{Clients: 8, MessageBytes: 4096, Messages: 8}
	var base *IncastResult
	for _, perCell := range []bool{false, true} {
		opt := Options{PerCellFabric: perCell, FabricQueueCells: 1024, FabricMarkThreshold: 128}
		res, err := RunIncastRDP(opt, IncastRDP{Workload: w, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SwitchMarked == 0 {
			t.Errorf("perCell=%v: no CE marks at threshold 128 under unpaced fan-in", perCell)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("per-cell fabric diverges from train forwarding:\n train: %+v\n percell: %+v", base, res)
		}
	}
}

// TestIncastAdaptiveMetricsGate checks the telemetry wiring: a node's
// adaptive family joins the registry when its first adaptive session
// opens, so an experiment that never opens one keeps its exact metric
// name set.
func TestIncastAdaptiveMetricsGate(t *testing.T) {
	run := func(adaptive bool) *metrics.Registry {
		reg := metrics.New()
		w := workload.FanIn{Clients: 2, MessageBytes: 4096, Messages: 2}
		opt := Options{Metrics: reg, FabricQueueCells: 1024, FabricMarkThreshold: 128}
		if _, err := RunIncastRDP(opt, IncastRDP{Workload: w, Adaptive: adaptive}); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	has := func(reg *metrics.Registry, name string) bool {
		_, ok := reg.Get(name)
		return ok
	}
	on, off := run(true), run(false)
	for _, name := range []string{"n1/rdp/fast_retx", "n1/rdp/ecn_echoed", "n1/rdp/rtt_samples", "n1/rdp/rtt_us"} {
		if !has(on, name) {
			t.Errorf("adaptive incast: %s missing", name)
		}
		if has(off, name) {
			t.Errorf("non-adaptive incast: %s present — snapshots of non-adaptive runs grow new names", name)
		}
	}
	if !has(off, "n1/rdp/retransmits") {
		t.Error("non-adaptive incast: n1/rdp/retransmits missing")
	}
}
