// Command perfbench is the simulator's benchmark: it runs one seeded
// workload through the public core, session and Stats() API with a
// serial engine and reports, as the last line of its output, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). It exits nonzero when a correctness check fails.
//
//	go run . --workload pingpong --seed 1 --seconds 10 --trace 0
//
// METRICS.md in this directory defines every metric and says which
// layer and workload each one is meant to move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	traced   bool
	outDir   string // where a traced run writes its span file
	tiny     bool   // a few ops per repeat and a tiny ladder (the benchmark's own tests)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pingpong, rx_stream, incast_rdp or tenants_churn")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds of measured repeats")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (pingpong|rx_stream|incast_rdp|tenants_churn), --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: filepath.Join(".bench_build", "perfbench")}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s failed its correctness checks (%d of %d ops failed)\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// mode is how one measured repeat runs.
type mode int

const (
	untraced    mode = iota
	traced           // spans plus a CPU profile of the measured phase
	gomaxprocs1      // untraced, with GOMAXPROCS=1
)

var modeNames = [...]string{"untraced", "traced", "gomaxprocs1"}

// sample is one repeat: host-side measurements plus the outcome. The
// set-up and the measured phase are timed in host CPU time of the whole
// process (every thread: the engine's procs, the GC, the runtime); the
// measured phase also in wall time.
type sample struct {
	mode   mode
	setup  time.Duration // CPU
	cpu    time.Duration
	wall   time.Duration
	allocs uint64
	heap   uint64 // live heap after GC at the end of the measured phase
	o      *outcome
}

func (s sample) nsPerCell() float64 { return ratio(float64(s.cpu.Nanoseconds()), float64(s.o.cells)) }
func (s sample) wallPerCell() float64 {
	return ratio(float64(s.wall.Nanoseconds()), float64(s.o.cells))
}
func (s sample) allocsPerCell() float64 { return ratio(float64(s.allocs), float64(s.o.cells)) }

// bench runs a warm-up repeat and then measured repeats until the
// configured seconds have passed (at least three), writes the report to
// out, and returns the result line.
func bench(cfg config, out io.Writer) (*result, error) {
	env := environment(cfg)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(out, "# env %s\n", envLine)

	mk := cfg.workload.gen(cfg.seed, cfg.tiny)
	var tr *tracer
	var prof *profile
	modes := []mode{untraced}
	if cfg.traced {
		tr = newTracer()
		prof = newProfile()
		modes = []mode{untraced, traced, gomaxprocs1}
	}
	root := tr.begin(0, "run", 0)

	warm := tr.begin(0, "warm-up", root)
	first, err := repeat(mk, untraced, tr, 0, warm, nil)
	tr.end(warm)
	if err != nil {
		return nil, err
	}
	report(out, "warm-up", first)
	samples := []sample{first}
	start := time.Now()
	// At least three untraced repeats for the medians; a traced run
	// needs one repeat of each mode.
	minRepeats := 3
	if cfg.traced {
		minRepeats = len(modes)
	}
	for i := 0; time.Since(start).Seconds() < cfg.seconds || i < minRepeats; i++ {
		m := modes[i%len(modes)]
		var sp int
		var p *profile
		if m == traced {
			sp = tr.begin(i+1, "repeat", root)
			p = prof
		}
		s, err := repeat(mk, m, tr.when(m == traced), i+1, sp, p)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		report(out, modeNames[m], s)
		samples = append(samples, s)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range samples {
		res.Attempted += s.o.ops
		res.Failed += s.o.failed
		for _, f := range s.o.failures {
			fmt.Fprintf(out, "# FAILED %s\n", f)
		}
		for _, c := range s.o.conserve {
			fmt.Fprintf(out, "# CONSERVATION %s: %s\n", cfg.workload.name, c)
			res.Correct = false
		}
		if s.o.fingerprint != first.o.fingerprint {
			fmt.Fprintf(out, "# FINGERPRINT mismatch at seed %d: %s != %s\n", cfg.seed, s.o.fingerprint, first.o.fingerprint)
			res.Correct = false
		}
	}
	fmt.Fprintf(out, "# %s ops %d ops_failed %d\n", cfg.workload.name, res.Attempted, res.Failed)
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, n := range first.o.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	fmt.Fprintf(out, "# sim_rtt_us %.3f sim_goodput_mbps %.3f fingerprint %s\n", first.o.simRTTus, first.o.goodputMbps, first.o.fingerprint)

	byMode := map[mode][]sample{}
	for _, s := range samples[1:] {
		byMode[s.mode] = append(byMode[s.mode], s)
	}
	un := byMode[untraced]
	if !cfg.traced {
		res.Metrics = endToEnd(un, first.o)
	} else {
		ld := tr.begin(0, "ladder", root)
		rungs := runLadder(tr, ld, cfg.tiny)
		tr.end(ld)
		res.Metrics = perLayer(byMode, rungs, prof, first.o, out)
		tr.end(root)
		path, err := tr.write(cfg.outDir, env)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans %s\n", path)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// repeat builds, opens, drives, checks and shuts down one fresh system.
// Set-up (build + open) and the measured phase (drive) are timed apart;
// the heap is read after a GC at the end of the measured phase, before
// shutdown. Set-up starts from a cold heap, its memory returned to the
// operating system, as in a fresh process: it pays for faulting in the
// hosts' memory every time, not only when the runtime has happened to
// release it.
func repeat(mk func() instance, m mode, tr *tracer, id, parent int, prof *profile) (sample, error) {
	s := sample{mode: m}
	if m == gomaxprocs1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	debug.FreeOSMemory()
	c0 := cpuTime()
	sp := tr.begin(id, "build", parent)
	inst := mk()
	tr.end(sp)
	sp = tr.begin(id, "open", parent)
	err := inst.open()
	tr.end(sp)
	s.setup = cpuTime() - c0
	if err != nil {
		inst.shutdown()
		return s, err
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var buf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			inst.shutdown()
			return s, err
		}
	}
	sp = tr.begin(id, "drive", parent)
	c1, t1 := cpuTime(), time.Now()
	inst.drive()
	s.wall, s.cpu = time.Since(t1), cpuTime()-c1
	tr.end(sp)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms)
	s.allocs = ms.Mallocs - mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.heap = ms.HeapAlloc

	sp = tr.begin(id, "verify", parent)
	s.o = inst.check()
	tr.annotate(sp, s.o.counts)
	tr.end(sp)
	sp = tr.begin(id, "shutdown", parent)
	inst.shutdown()
	tr.end(sp)
	if prof != nil {
		if err := prof.add(buf.Bytes()); err != nil {
			return s, fmt.Errorf("reading the CPU profile: %w", err)
		}
	}
	return s, nil
}

func report(out io.Writer, label string, s sample) {
	fmt.Fprintf(out, "# %-11s setup %.4fs drive %.4fs cells %d ns/cell %.2f wall %.2f allocs/cell %.4f heap %.2fMiB ops %d failed %d\n",
		label, s.setup.Seconds(), s.cpu.Seconds(), s.o.cells, s.nsPerCell(), s.wallPerCell(), s.allocsPerCell(), float64(s.heap)/(1<<20), s.o.ops, s.o.failed)
}

// cpuTime is the host CPU time (user plus system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd reduces the untraced repeats to the end-to-end metrics, each
// the median over repeats.
func endToEnd(un []sample, o *outcome) map[string]metric {
	pick := func(f func(sample) float64) float64 {
		vs := make([]float64, len(un))
		for i, s := range un {
			vs[i] = f(s)
		}
		return median(vs)
	}
	return map[string]metric{
		"ns_per_cell":      {pick(sample.nsPerCell), "ns"},
		"setup_s":          {pick(func(s sample) float64 { return s.setup.Seconds() }), "s"},
		"heap_retained_mb": {pick(func(s sample) float64 { return float64(s.heap) / (1 << 20) }), "MiB"},
		"allocs_per_cell":  {pick(sample.allocsPerCell), "count"},
		"paper_err_pct":    {o.paperErrPct, "%"},
	}
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
