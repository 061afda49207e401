package core

import (
	"encoding/json"
	"testing"

	"repro/internal/fbuf"
	"repro/internal/metrics"
)

// TestTenantsSteadyDelivery runs a modest steady multi-tenant workload
// with churn: every tenant's PDUs must arrive, the churn cycles must
// complete, and the fbuf cache must see real eviction pressure once the
// tenant count exceeds its budget.
func TestTenantsSteadyDelivery(t *testing.T) {
	res, err := RunTenants(Options{}, Tenants{Tenants: 24, PDUs: 3, PDUBytes: 1024, Churn: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall != 0 {
		t.Fatalf("steady shortfall %d (delivered %d/%d)", res.Shortfall, res.Delivered, res.Sent)
	}
	if !res.Isolated {
		t.Fatalf("min delivered %d of %d without any misbehaving tenant", res.MinDelivered, res.PDUs)
	}
	if res.ChurnCycles != 8 || res.ChurnDelivered != 8 {
		t.Fatalf("churn cycles %d delivered %d, want 8/8", res.ChurnCycles, res.ChurnDelivered)
	}
	if res.MuxChannels == 0 || res.PeakBoundVCIs < 24 {
		t.Fatalf("mux channels %d, bound VCIs %d", res.MuxChannels, res.PeakBoundVCIs)
	}
	// 24 steady paths + churn over a 16-path budget must evict.
	if res.FbufEvictions == 0 {
		t.Fatal("no fbuf evictions under path churn")
	}
	if res.FbufHits == 0 {
		t.Fatal("no cached fbuf allocations at all")
	}
	if res.Violations != 0 {
		t.Fatalf("%d spurious violations", res.Violations)
	}
	if res.PerPDUCost <= 0 {
		t.Fatal("per-PDU cost not measured")
	}
}

// TestTenantsDeterministic pins that two runs of the same configuration
// serialize to identical bytes — the property the committed
// BENCH_tenants.json artifact relies on.
func TestTenantsDeterministic(t *testing.T) {
	cfg := Tenants{Tenants: 20, PDUs: 2, PDUBytes: 512, Churn: 5, FbufPaths: 8}
	r1, err := RunTenants(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunTenants(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("tenants run not deterministic:\n%s\n%s", b1, b2)
	}
	// A different seed must still deliver everything (the workload is
	// deterministic in outcome, only event interleaving shifts).
	r3, err := RunTenants(Options{Seed: 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Shortfall != 0 {
		t.Fatalf("seed 7 shortfall %d", r3.Shortfall)
	}
}

// TestTenantsMisbehaverIsolated runs the seeded misbehaving-tenant
// scenario: a full-blast sender whose receiver never reaps shares the
// adaptor with paced innocents. With the fairness mechanisms on, every
// innocent still gets its PDUs through while the hog's are dropped at
// the board.
func TestTenantsMisbehaverIsolated(t *testing.T) {
	res, err := RunTenants(Options{}, Tenants{Tenants: 16, PDUs: 4, PDUBytes: 1024, Misbehave: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Isolated {
		t.Fatalf("innocents not isolated: min delivered %d of %d (shortfall %d)",
			res.MinDelivered, res.PDUs, res.Shortfall)
	}
	if res.HogSent == 0 {
		t.Fatal("hog sent nothing; scenario is vacuous")
	}
	if res.QuotaDropped == 0 && res.RingDropped == 0 {
		t.Fatal("no quota or ring drops; the hog was never actually curbed")
	}
}

// TestTenantsScaleOutPastChannels opens 64 tenants over 15 channels
// with a small fbuf budget and checks the per-PDU cost is measured and
// the cache is under genuine pressure — the sweep's smallest interesting
// point, kept cheap enough for the tier-1 suite.
func TestTenantsScaleOutPastChannels(t *testing.T) {
	res, err := RunTenants(Options{}, Tenants{
		Tenants: 64, PDUs: 2, PDUBytes: 1024, Churn: 4,
		FbufPaths: fbuf.DefaultMaxCachedPaths,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall != 0 {
		t.Fatalf("shortfall %d at 64 tenants", res.Shortfall)
	}
	if res.PeakBoundVCIs < 64 {
		t.Fatalf("bound VCIs %d, want >= 64", res.PeakBoundVCIs)
	}
	if res.MuxChannels != 15 {
		t.Fatalf("mux channels %d, want all 15", res.MuxChannels)
	}
	if res.FbufEvictions == 0 || res.FbufDemotions == 0 {
		t.Fatalf("no cache pressure at 64 tenants over a 16-path budget (evictions %d, demotions %d)",
			res.FbufEvictions, res.FbufDemotions)
	}
}

// TestTenantsFbufMissesUnderChurn pins the degraded end of the cache: a
// one-path budget means every define evicts the previous tenant's path,
// so any PDU arriving after its successor's setup must take the
// uncached (miss) route while deliveries right after definition still
// hit.
func TestTenantsFbufMissesUnderChurn(t *testing.T) {
	res, err := RunTenants(Options{}, Tenants{
		Tenants: 8, PDUs: 3, PDUBytes: 8192, FbufPaths: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shortfall != 0 {
		t.Fatalf("shortfall %d", res.Shortfall)
	}
	if res.FbufMisses == 0 {
		t.Fatal("one-path budget produced no misses")
	}
	if res.FbufHits == 0 {
		t.Fatal("no hits at all; even freshly defined paths missed")
	}
}

// TestTenantsMetrics: with a registry, RunTenants registers the ADC and
// fbuf churn families, and telemetry leaves the result unchanged.
func TestTenantsMetrics(t *testing.T) {
	cfg := Tenants{Tenants: 20, PDUs: 2, PDUBytes: 512, Churn: 5, FbufPaths: 8}
	plain, err := RunTenants(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	res, err := RunTenants(Options{Metrics: reg}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tenantsA/adc/violations", "tenantsB/adc/virtual_adcs", "tenantsB/fbuf/demotions", "tenantsB/fbuf/cached_paths"} {
		if _, ok := reg.Get(name); !ok {
			t.Errorf("%s not registered", name)
		}
	}
	if v, _ := reg.Get("tenantsB/fbuf/path_undefines"); v.Value == 0 {
		t.Error("fbuf churn family read 0 undefines under path churn")
	}
	b1, _ := json.Marshal(plain)
	b2, _ := json.Marshal(res)
	if string(b1) != string(b2) {
		t.Errorf("telemetry perturbed the result:\n off: %s\n on:  %s", b1, b2)
	}
}
