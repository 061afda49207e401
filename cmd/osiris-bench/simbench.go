package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/parexp"
	"repro/internal/workload"
)

var (
	flagSimBench = flag.Bool("simbench", false, "wall-clock benchmarks of the simulation core (writes -benchout)")
	flagBenchOut = flag.String("benchout", "BENCH_simcore.json", "output path for the simbench JSON report")
	flagBenchRef = flag.String("benchbaseline", "", "optional previous simbench JSON to embed as the before column")
	flagCPUProf  = flag.String("cpuprofile", "", "write a CPU profile of the simbench workloads to this file")
	flagMemProf  = flag.String("memprofile", "", "write an allocation profile of the simbench workloads to this file")
	flagReps     = flag.Int("benchreps", 3, "repetitions per simbench workload (best wall time is reported)")
	flagAlloGate = flag.Float64("allocgate", 0, "fail (exit 1) if fanin_4x8k exceeds this many allocs per cell (0 disables; allocation counts are deterministic, unlike wall time)")
)

func init() { extraSections = append(extraSections, runSimBench) }

// simBenchResult is one workload's measurement. The wall-clock fields
// (WallSeconds, EventsPerSec, NsPerCell, AllocsPerCell) vary run to run
// with the host machine; the Check map holds the simulated results,
// which must be bit-for-bit stable for a fixed seed.
type simBenchResult struct {
	Name          string             `json:"name"`
	WallSeconds   float64            `json:"wall_seconds"`
	SimSeconds    float64            `json:"sim_seconds"`
	Events        uint64             `json:"events"`
	Cells         int64              `json:"cells"`
	Allocs        uint64             `json:"allocs"`
	EventsPerSec  float64            `json:"events_per_sec"`
	NsPerCell     float64            `json:"ns_per_cell"`
	AllocsPerCell float64            `json:"allocs_per_cell"`
	Check         map[string]float64 `json:"check"`
}

// simBenchReport is the BENCH_simcore.json schema. Baseline carries the
// same workloads measured before the event-core overhaul when a previous
// report is supplied with -benchbaseline.
type simBenchReport struct {
	reportHeader
	Baseline []simBenchResult `json:"baseline,omitempty"`
	Results  []simBenchResult `json:"results"`
}

// bestResults runs every workload -benchreps times (a fresh system each
// repetition) as parexp jobs named simbench/<workload>/rep<i>, and
// keeps, per workload, the repetition with the lowest wall time; the
// simulated quantities are deterministic, so only the wall-clock noise
// varies and the Check map is taken from the first surviving rep.
// Workloads whose reps were all filtered out by -run are omitted.
//
// The jobs run on one worker whatever -workers says: measure brackets
// each job with process-wide runtime.MemStats and wall time, so a job
// running beside it would be charged to it, and the -allocgate reading
// would depend on the core count.
func bestResults(workloads []struct {
	name string
	fn   func() simBenchResult
}) []simBenchResult {
	reps := *flagReps
	if reps < 1 {
		reps = 1
	}
	var jobs []parexp.Job
	for _, w := range workloads {
		w := w
		for i := 0; i < reps; i++ {
			jobs = append(jobs, parexp.Job{
				Name: fmt.Sprintf("simbench/%s/rep%d", w.name, i),
				Run:  func() (any, error) { return w.fn(), nil },
			})
		}
	}
	results := runJobsOn(1, selected(jobs))
	var out []simBenchResult
	for _, w := range workloads {
		var best *simBenchResult
		for _, r := range results {
			if r.Err != nil || !strings.HasPrefix(r.Name, "simbench/"+w.name+"/") {
				continue
			}
			rep := r.Value.(simBenchResult)
			if best == nil {
				best = &rep
			} else if rep.WallSeconds < best.WallSeconds {
				rep.Check = best.Check // identical by determinism
				best = &rep
			}
		}
		if best != nil {
			out = append(out, *best)
		}
	}
	return out
}

// measure runs fn with the memory accounting bracketed, attributing the
// wall time, allocation delta, executed events, and simulated cells to
// one named workload. Setup (testbed construction) happens in the
// caller, outside the bracket, so steady-state per-cell costs dominate.
func measure(name string, fn func() (events uint64, simTime time.Duration, cells int64, check map[string]float64)) simBenchResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	events, simTime, cells, check := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	r := simBenchResult{
		Name:        name,
		WallSeconds: wall.Seconds(),
		SimSeconds:  simTime.Seconds(),
		Events:      events,
		Cells:       cells,
		Allocs:      allocs,
		Check:       check,
	}
	if wall > 0 {
		r.EventsPerSec = float64(events) / wall.Seconds()
	}
	if cells > 0 {
		r.NsPerCell = float64(wall.Nanoseconds()) / float64(cells)
		r.AllocsPerCell = float64(allocs) / float64(cells)
	}
	return r
}

// benchFig3Receive measures the Figure 3 receive path: the DEC 3000/600
// double-cell DMA configuration absorbing fictitious UDP/IP traffic —
// the workload whose plateau the paper shows is link-limited, so any
// simulator overhead here directly stretches the wall clock.
func benchFig3Receive() simBenchResult {
	opt := alOptions()
	opt.Board = board.Config{RxDMA: board.DoubleCell}
	tb := core.NewTestbed(opt)
	defer tb.Shutdown()
	const msgSize, count = 65536, 32
	return measure("fig3_receive_64k", func() (uint64, time.Duration, int64, map[string]float64) {
		ev0 := tb.Events()
		mbps, err := tb.RunReceiveThroughput(msgSize, count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench fig3: %v\n", err)
		}
		st := tb.B.Board.Stats()
		return tb.Events() - ev0, time.Duration(tb.Now()), st.CellsRx, map[string]float64{
			"mbps":     mbps,
			"cells_rx": float64(st.CellsRx),
		}
	})
}

// benchFanIn measures the switched fan-in workload: 4 clients pushing
// UDP/IP messages at one server through the cell switch, paced into the
// partial-overload regime where the server's board — not the fabric —
// is the bottleneck and sheds load at its receive FIFO.
//
// The earlier form of this bench blasted all 4 clients at full rate
// with no pacing. That is sustained 4× incast: the switch's output
// queue tail-drops ~35% of cells, and because the four VCIs' cells
// interleave round-robin through the congested queue, every single
// message loses at least one cell — the committed report showed
// `delivered: 0` / `aggregate_mbps: 0` against 6538 switch drops.
// Investigation (deterministic replay across pacing configurations)
// showed the delivery accounting is correct; the workload choice made
// the check structurally zero, so it pinned nothing about the delivery
// path. The paced configuration below keeps a congestion signature
// (board FIFO drops, damaged-PDU discards) while most messages deliver
// and are verified byte for byte, so every check value carries signal:
// a regression in pacing, switching, reassembly, or delivery accounting
// moves at least one of them.
func benchFanIn() simBenchResult {
	const clients, msgSize, count = 4, 8192, 25
	cl := core.NewCluster(core.Options{Shards: *flagShards, PerCellFabric: *flagPerCell}, clients+1)
	defer cl.Shutdown()
	return measure("fanin_4x8k", func() (uint64, time.Duration, int64, map[string]float64) {
		ev0 := cl.Events()
		res, err := cl.RunFanIn(workload.FanIn{
			Clients: clients, MessageBytes: msgSize, Messages: count,
			Gap:     2 * time.Millisecond,
			Stagger: 500 * time.Microsecond,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench fanin: %v\n", err)
			return cl.Events() - ev0, time.Duration(cl.Now()), 0, nil
		}
		bs := cl.Nodes[0].Board.Stats()
		cells := res.SwitchForwarded + res.SwitchDropped
		return cl.Events() - ev0, time.Duration(cl.Now()), cells, map[string]float64{
			"delivered":        float64(res.Delivered),
			"aggregate_mbps":   res.AggregateMbps,
			"switch_forwarded": float64(res.SwitchForwarded),
			"switch_dropped":   float64(res.SwitchDropped),
			"fifo_dropped":     float64(bs.CellsDroppedFIFO),
			"pdus_dropped":     float64(bs.PDUsDropped),
		}
	})
}

func runSimBench() {
	if !*flagSimBench {
		return
	}
	fmt.Println("== Simulator core wall-clock benchmarks ==")
	if *flagMemProf != "" {
		// Per-cell allocation counts are small multiplied by many; the
		// default 512 KB sampling rate would see a handful of samples
		// for the whole run. Record every allocation when profiling —
		// wall-clock numbers from a profiled run are not quotable anyway.
		runtime.MemProfileRate = 1
	}
	if *flagCPUProf != "" {
		f, err := os.Create(*flagCPUProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	report := simBenchReport{
		reportHeader: newReportHeader("osiris-simbench/1"),
		Results: bestResults([]struct {
			name string
			fn   func() simBenchResult
		}{
			{"fig3_receive_64k", benchFig3Receive},
			{"fanin_4x8k", benchFanIn},
		}),
	}

	if *flagBenchRef != "" {
		data, err := os.ReadFile(*flagBenchRef)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: benchbaseline: %v\n", err)
			os.Exit(1)
		}
		var prev simBenchReport
		if err := json.Unmarshal(data, &prev); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: benchbaseline: %v\n", err)
			os.Exit(1)
		}
		report.Baseline = prev.Results
	}

	if *flagMemProf != "" {
		f, err := os.Create(*flagMemProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: memprofile: %v\n", err)
		}
		f.Close()
	}

	for _, r := range report.Results {
		fmt.Printf("%-18s %8.0f events/s  %7.0f ns/cell  %6.2f allocs/cell  (sim %v in wall %v)\n",
			r.Name, r.EventsPerSec, r.NsPerCell, r.AllocsPerCell,
			time.Duration(r.SimSeconds*1e9).Round(time.Microsecond),
			time.Duration(r.WallSeconds*1e9).Round(time.Microsecond))
	}

	writeReport("simbench", *flagBenchOut, report)

	if *flagAlloGate > 0 {
		for _, r := range report.Results {
			if r.Name != "fanin_4x8k" {
				continue
			}
			if r.AllocsPerCell > *flagAlloGate {
				fmt.Fprintf(os.Stderr, "simbench: allocgate: %s at %.3f allocs/cell exceeds the %.3f gate\n",
					r.Name, r.AllocsPerCell, *flagAlloGate)
				os.Exit(1)
			}
			fmt.Printf("allocgate: %s %.3f allocs/cell within %.3f\n", r.Name, r.AllocsPerCell, *flagAlloGate)
		}
	}
}
