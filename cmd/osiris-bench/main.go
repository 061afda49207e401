// Command osiris-bench regenerates the paper's evaluation (§4): Table 1
// and Figures 2-4, printing the paper's published values next to the
// simulation's, plus the ablation experiments from DESIGN.md.
//
// Every table row, figure point, ablation cell, and loss-sweep rate is
// an independent, seeded, deterministic simulation, so the harness fans
// them across a parexp worker pool (-workers). Results merge in
// canonical submission order: stdout and every JSON artifact are
// byte-identical for any worker count.
//
// Orthogonally, -shards partitions each simulated system itself over a
// conservative-parallel engine group (sim.ShardGroup); results stay
// byte-identical at any shard count, and -shardbench measures the
// scaling and checks that invariant.
//
// Usage:
//
//	osiris-bench -all                # everything (a few minutes of CPU)
//	osiris-bench -all -workers=8     # same output, several times faster
//	osiris-bench -table1
//	osiris-bench -fig2 -quick        # coarser sweeps, fewer messages
//	osiris-bench -run 'fig3/double.*65536'   # single sweep points by name
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/parexp"
	"repro/internal/stats"
	"repro/internal/workload"
)

var (
	flagAll     = flag.Bool("all", false, "run every table and figure")
	flagTable1  = flag.Bool("table1", false, "Table 1: round-trip latencies")
	flagFig2    = flag.Bool("fig2", false, "Figure 2: DEC 5000/200 receive-side throughput")
	flagFig3    = flag.Bool("fig3", false, "Figure 3: DEC 3000/600 receive-side throughput")
	flagFig4    = flag.Bool("fig4", false, "Figure 4: transmit-side throughput")
	flagQuick   = flag.Bool("quick", false, "coarser sweeps and fewer messages per point")
	flagWorkers = flag.Int("workers", 0, "parallel experiment workers (0 = GOMAXPROCS, 1 = serial)")
	flagShards  = flag.Int("shards", 1, "engine shards per simulated system (1 = serial engine; >1 runs each testbed/cluster on a conservative-parallel shard group — results are byte-identical)")
	flagRun     = flag.String("run", "", "regexp selecting experiment jobs by name, e.g. 'fig3/double.*65536' (enables all sections unless some are given)")
	flagPerCell = flag.Bool("percell", false, "force the switch's per-cell fabric instead of train forwarding (results are byte-identical; CI diffs the two)")
)

// runFilter is the compiled -run expression (nil when unset).
var runFilter *regexp.Regexp

func main() {
	flag.Parse()
	if *flagRun != "" {
		re, err := regexp.Compile(*flagRun)
		if err != nil {
			fmt.Fprintf(os.Stderr, "osiris-bench: bad -run regexp: %v\n", err)
			os.Exit(2)
		}
		runFilter = re
		// -run alone means "search every regular section for matches".
		if !(*flagAll || *flagTable1 || *flagFig2 || *flagFig3 || *flagFig4 || *flagAblations || *flagFaults || *flagIncast || *flagTenants) {
			*flagAll = true
		}
	}
	if !(*flagAll || *flagTable1 || *flagFig2 || *flagFig3 || *flagFig4 || *flagAblations || *flagSimBench || *flagFaults || *flagIncast || *flagTenants || *flagParBench || *flagShardBench || *flagMetrics) {
		flag.Usage()
		os.Exit(2)
	}
	if *flagAll || *flagTable1 {
		table1()
	}
	if *flagAll || *flagFig2 {
		figure2()
	}
	if *flagAll || *flagFig3 {
		figure3()
	}
	if *flagAll || *flagFig4 {
		figure4()
	}
	for _, fn := range extraSections {
		fn()
	}
}

// workers resolves the -workers flag: 0 (or negative) means one worker
// per available CPU.
func workers() int {
	if *flagWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return *flagWorkers
}

// selected applies the -run filter to a section's job batch; with no
// filter every job survives. A section whose batch filters to nothing
// skips itself entirely (no header, no work).
func selected(jobs []parexp.Job) []parexp.Job {
	if runFilter == nil {
		return jobs
	}
	var kept []parexp.Job
	for _, j := range jobs {
		if runFilter.MatchString(j.Name) {
			kept = append(kept, j)
		}
	}
	return kept
}

// runJobs executes pre-selected jobs on the worker pool, reports
// failures to stderr in canonical order, and returns the results
// (canonical order, names preserved). Renderers look results up by job
// name, so filtered-out jobs simply leave gaps.
func runJobs(jobs []parexp.Job) []parexp.Result { return runJobsOn(workers(), jobs) }

// runJobsOn is runJobs on a given number of workers.
func runJobsOn(n int, jobs []parexp.Job) []parexp.Result {
	results := parexp.Run(n, jobs)
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, r.Err)
		}
	}
	return results
}

func rounds() int {
	if *flagQuick {
		return 2
	}
	return 5
}

func msgs() int {
	if *flagQuick {
		return 6
	}
	return 12
}

func sweepSizes() []int {
	if *flagQuick {
		return []int{1024, 8192, 65536, 262144}
	}
	return workload.FigureSizes()
}

// dsOptions and alOptions are the two machine profiles of §4. Both pick
// up -shards, so every table row and figure point can run its simulated
// system on a sharded engine group; the printed numbers are identical
// either way (the shard-invariance tests pin this).
func dsOptions() core.Options {
	return core.Options{Profile: hostsim.DEC5000_200(), Driver: driver.Config{Cache: driver.CacheLazy}, Shards: *flagShards, PerCellFabric: *flagPerCell}
}

func alOptions() core.Options {
	return core.Options{Profile: hostsim.DEC3000_600(), Driver: driver.Config{Cache: driver.CacheNone}, Shards: *flagShards, PerCellFabric: *flagPerCell}
}

func table1() {
	paper := map[string]map[int]float64{
		"DEC5000/200 ATM":    {1: 353, 1024: 417, 2048: 486, 4096: 778},
		"DEC5000/200 UDP/IP": {1: 598, 1024: 659, 2048: 725, 4096: 1011},
		"DEC3000/600 ATM":    {1: 154, 1024: 215, 2048: 283, 4096: 449},
		"DEC3000/600 UDP/IP": {1: 316, 1024: 376, 2048: 446, 4096: 619},
	}
	type t1point struct {
		opt  core.Options
		kind core.ProtoKind
		size int
	}
	var jobs []parexp.Job
	meta := map[string]t1point{}
	for _, row := range []struct {
		opt  core.Options
		kind core.ProtoKind
	}{
		{dsOptions(), core.ATMRaw},
		{dsOptions(), core.UDPIP},
		{alOptions(), core.ATMRaw},
		{alOptions(), core.UDPIP},
	} {
		for _, size := range workload.Table1Sizes() {
			row, size := row, size
			name := fmt.Sprintf("table1/%s/%s/%d", row.opt.Profile.Name, row.kind, size)
			meta[name] = t1point{row.opt, row.kind, size}
			jobs = append(jobs, parexp.Job{
				Name: name,
				Seed: core.DefaultSeed,
				Cost: float64(size),
				Run: func() (any, error) {
					tb := core.NewTestbed(row.opt)
					defer tb.Shutdown()
					return tb.RunLatency(row.kind, size, rounds())
				},
			})
		}
	}
	jobs = selected(jobs)
	if len(jobs) == 0 {
		return
	}
	fmt.Println("== Table 1: Round-Trip Latencies (µs) ==")
	tab := stats.Table{Cols: []string{"machine", "protocol", "size", "paper µs", "sim µs", "ratio"}}
	for _, r := range runJobs(jobs) {
		if r.Err != nil {
			continue
		}
		pt := meta[r.Name]
		key := pt.opt.Profile.Name + " " + pt.kind.String()
		want := paper[key][pt.size]
		got := r.Value.(time.Duration).Seconds() * 1e6
		tab.AddRow(pt.opt.Profile.Name, pt.kind.String(), fmt.Sprint(pt.size),
			fmt.Sprintf("%.0f", want), fmt.Sprintf("%.0f", got), fmt.Sprintf("%.2f", got/want))
	}
	fmt.Println(tab.Render())
}

type rxCurve struct {
	name string
	opt  core.Options
}

// receiveJobs builds one job per (curve, size) point of a receive-side
// figure. Jobs are named <fig>/<curve>/<size>; sizes serve as cost
// hints so the pool starts the big points first.
func receiveJobs(fig string, curves []rxCurve, sizes []int) []parexp.Job {
	var jobs []parexp.Job
	for _, c := range curves {
		for _, size := range sizes {
			c, size := c, size
			jobs = append(jobs, parexp.Job{
				Name: fmt.Sprintf("%s/%s/%d", fig, c.name, size),
				Seed: core.DefaultSeed,
				Cost: float64(size),
				Run: func() (any, error) {
					tb := core.NewTestbed(c.opt)
					defer tb.Shutdown()
					return tb.RunReceiveThroughput(size, msgs())
				},
			})
		}
	}
	return jobs
}

// figureSeries folds point results back into per-curve series, in curve
// order, skipping failed or filtered-out points.
func figureSeries(fig string, curves []rxCurve, sizes []int, results []parexp.Result) []stats.Series {
	byName := map[string]parexp.Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	var series []stats.Series
	for _, c := range curves {
		s := stats.Series{Name: c.name}
		for _, size := range sizes {
			r, ok := byName[fmt.Sprintf("%s/%s/%d", fig, c.name, size)]
			if !ok || r.Err != nil {
				continue
			}
			s.Add(float64(size), r.Value.(float64))
		}
		series = append(series, s)
	}
	return series
}

func receiveFigure(title, fig string, curves []rxCurve, paperNote string) {
	sizes := sweepSizes()
	jobs := selected(receiveJobs(fig, curves, sizes))
	if len(jobs) == 0 {
		return
	}
	fmt.Printf("== %s ==\n", title)
	results := runJobs(jobs)
	fmt.Println(stats.RenderFigure(title, "message bytes", "Mbps", figureSeries(fig, curves, sizes, results)))
	fmt.Println(paperNote)
}

func figure2() {
	ds := dsOptions()
	dbl := ds
	dbl.Board = board.Config{RxDMA: board.DoubleCell}
	eager := ds
	eager.Driver = driver.Config{Cache: driver.CacheEager}
	cs := ds
	cs.Checksum = true
	receiveFigure("Figure 2: DEC 5000/200 UDP/IP receive-side throughput", "fig2",
		[]rxCurve{
			{"double-cell DMA", dbl},
			{"single-cell DMA", ds},
			{"single-cell, cache invalidated", eager},
			{"single-cell, UDP checksum (text: ~80 Mbps)", cs},
		},
		"paper plateaus: double 379, single 340, invalidated 250 Mbps; CPU-touched ~80 Mbps")
}

// fig3Curves is the Figure 3 sweep's curve set — shared with -parbench,
// which uses this exact grid as its scaling workload.
func fig3Curves() []rxCurve {
	al := alOptions()
	dbl := al
	dbl.Board = board.Config{RxDMA: board.DoubleCell}
	dblCS := dbl
	dblCS.Checksum = true
	sglCS := al
	sglCS.Checksum = true
	return []rxCurve{
		{"double-cell DMA", dbl},
		{"double-cell, UDP-CS", dblCS},
		{"single-cell DMA", al},
		{"single-cell, UDP-CS", sglCS},
	}
}

func figure3() {
	receiveFigure("Figure 3: DEC 3000/600 UDP/IP receive-side throughput", "fig3",
		fig3Curves(),
		"paper plateaus: double ~516 (link-limited), double+CS 438, single ~460 Mbps")
}

func figure4() {
	curves := []rxCurve{
		{"3000/600", alOptions()},
		{"3000/600, UDP-CS", func() core.Options { o := alOptions(); o.Checksum = true; return o }()},
		{"5000/200", dsOptions()},
	}
	sizes := sweepSizes()
	var jobs []parexp.Job
	for _, c := range curves {
		for _, size := range sizes {
			c, size := c, size
			jobs = append(jobs, parexp.Job{
				Name: fmt.Sprintf("fig4/%s/%d", c.name, size),
				Seed: core.DefaultSeed,
				Cost: float64(size),
				Run: func() (any, error) {
					opt := c.opt
					opt.TxIsolated = true
					tb := core.NewTestbed(opt)
					defer tb.Shutdown()
					return tb.RunTransmitThroughput(size, msgs())
				},
			})
		}
	}
	jobs = selected(jobs)
	if len(jobs) == 0 {
		return
	}
	fmt.Println("== Figure 4: UDP/IP transmit-side throughput ==")
	results := runJobs(jobs)
	fmt.Println(stats.RenderFigure("Figure 4: transmit side", "message bytes", "Mbps",
		figureSeries("fig4", curves, sizes, results)))
	fmt.Println("paper: max 325 Mbps, limited by single-cell DMA TURBOchannel overhead")
}
