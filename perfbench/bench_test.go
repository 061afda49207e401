package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the output must match.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := bench(config{workload: w, seed: 7, seconds: 0.001, traced: traced, outDir: t.TempDir(), tiny: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The workloads, and each run's metric names and units, are exactly the
// ones BENCHMARK.json declares.
func TestMetricNamesAndUnits(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res := tinyRun(t, w.name, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			var extra []string
			for n, m := range res.Metrics {
				if u, ok := want[n]; !ok || u != m.Unit {
					extra = append(extra, n+" "+m.Unit)
				}
				delete(want, n)
			}
			sort.Strings(extra)
			if len(extra) > 0 || len(want) > 0 {
				t.Errorf("%s traced=%v: unexpected %v, missing %v", w.name, traced, extra, want)
			}
		}
	}
}

// One seed gives the same simulated results on every repeat.
func TestFingerprintRepeatsAtOneSeed(t *testing.T) {
	for _, w := range workloads {
		fp := func(seed int64) string {
			inst := w.gen(seed, true)()
			defer inst.shutdown()
			if err := inst.open(); err != nil {
				t.Fatal(err)
			}
			inst.drive()
			return inst.check().fingerprint
		}
		a, b := fp(3), fp(3)
		if a != b {
			t.Errorf("%s: fingerprints differ at one seed: %s vs %s", w.name, a, b)
		}
	}
}

// stalled leaves one pingpong testbed undriven, as if its simulation
// had stopped making progress.
type stalled struct{ *pingpong }

func (s stalled) drive() {
	for _, b := range s.beds[1:] {
		b.tb.Run()
	}
}

// A shortfall is counted in ops_failed, op by op, and named.
func TestInducedShortfallCountsAsFailed(t *testing.T) {
	inst := genPingpong(5, true)().(*pingpong)
	defer inst.shutdown()
	if err := inst.open(); err != nil {
		t.Fatal(err)
	}
	stalled{inst}.drive()
	o := inst.check()
	row := len(inst.beds[0].payloads)
	if o.failed != row {
		t.Fatalf("ops_failed %d, want the stalled row's %d rounds (of %d ops)", o.failed, row, o.ops)
	}
	if len(o.failures) == 0 || !strings.Contains(o.failures[0], "pingpong") || !strings.Contains(o.failures[0], "stalled after 0 of") {
		t.Fatalf("failure not named: %v", o.failures)
	}
}

func TestBadArgumentsExitNonzero(t *testing.T) {
	for _, args := range [][]string{{}, {"--workload", "nope"}, {"--workload", "pingpong", "--trace", "2"}} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Run":        "sim",
		"repro/internal/board.(*Board).rxProc":    "board",
		"runtime.chanrecv":                        "runtime_sched",
		"runtime.(*guintptr).cas":                 "runtime_sched",
		"gogo":                                    "runtime_sched",
		"runtime.mallocgc":                        "runtime_gc",
		"runtime.memmove":                         "runtime_other",
		"main.(*pingpong).drive":                  "bench",
		"bytes.Equal":                             "other",
		"repro/internal/workload.FanIn.Payload":   "other",
		"repro/internal/proto.(*udpSession).Push": "proto",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
