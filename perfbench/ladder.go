package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/dpm"
	"repro/internal/driver"
	"repro/internal/fbuf"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/sim"
)

// rung is one step of the host-time ladder: a small fixture around one
// public call. prep builds the fixture for n ops and returns the timed
// body (which reports the ops it did) and the teardown.
type rung struct {
	name string // metric prefix; the rung reports <name>_ns and <name>_allocs
	n    int    // ops per timing (the tiny ladder uses n/1000, at least 2)
	prep func(n int) (do func() int, done func())
}

// rungResult is one rung's measurement.
type rungResult struct {
	name     string
	ops      int // ops the body did
	nsPerOp  float64
	allocsOp float64
	retained float64 // heap kept per op after GC, before teardown
}

var ladder = []rung{
	{"sim.handoff", 200000, func(n int) (func() int, func()) {
		e := sim.NewEngine(1)
		e.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
		return func() int { e.Run(); return n }, e.Shutdown
	}},
	{"sim.spawn", 40000, func(n int) (func() int, func()) {
		// One proc at a time, as interrupts spawn them, so the event
		// queue stays short and the retained heap is what the engine
		// keeps per finished proc.
		e := sim.NewEngine(1)
		return func() int {
			for i := 0; i < n; i++ {
				e.Go("empty", func(*sim.Proc) {})
				e.Run()
			}
			return n
		}, e.Shutdown
	}},
	{"sim.event", 500000, func(n int) (func() int, func()) {
		// A chain of events, each scheduling the next, keeps the queue
		// as short as a workload's.
		e := sim.NewEngine(1)
		fired := 0
		var next func(any)
		next = func(any) {
			if fired++; fired < n {
				e.AtCall(e.Now()+1, next, nil)
			}
		}
		return func() int {
			e.AtCall(0, next, nil)
			e.Run()
			return fired
		}, e.Shutdown
	}},
	{"atm.link_cell", 200000, func(n int) (func() int, func()) {
		e := sim.NewEngine(1)
		g := atm.NewStripeGroup(e, atm.StripeWidth, atm.LinkConfig{})
		got := 0
		g.SetReceiver(func(atm.Cell, int) { got++ })
		cells := atm.Segment(101, make([]byte, 4096), atm.StripeWidth, false)
		e.Go("train", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				g.Send(p, cells[i%len(cells)])
			}
		})
		return func() int { e.Run(); return got }, e.Shutdown
	}},
	{"atm.switch_cell", 100000, func(n int) (func() int, func()) {
		e := sim.NewEngine(1)
		sw := atm.NewSwitch(e, 2, atm.SwitchConfig{})
		if err := sw.Route(101, 1); err != nil {
			panic(err)
		}
		got := 0
		sw.Port(1).Egress().SetReceiver(func(atm.Cell, int) { got++ })
		cells := atm.Segment(101, make([]byte, 4096), atm.StripeWidth, false)
		in := sw.Port(0).Ingress()
		e.Go("train", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				in.Send(p, cells[i%len(cells)])
			}
		})
		return func() int { e.Run(); return got }, e.Shutdown
	}},
	{"board.inject_cell", 100000, func(n int) (func() int, func()) {
		tb := core.NewTestbed(core.Options{TxIsolated: true})
		B := tb.B
		pdus := 0
		B.Drv.OpenPath(101, func(*sim.Proc, *msg.Message) { pdus++ })
		tb.Run() // let the driver post its receive buffers
		cells := atm.Segment(101, make([]byte, 4096), atm.StripeWidth, false)
		injected := 0
		tb.Go(1, "inject", func(p *sim.Proc) {
			for injected < n {
				want := pdus + 1
				for i := range cells {
					for !B.Board.InjectCell(cells[i], i%atm.StripeWidth) {
						p.Sleep(time.Microsecond)
					}
				}
				injected += len(cells)
				for deadline := p.Now().Add(time.Millisecond); pdus < want && p.Now() < deadline; {
					p.Sleep(5 * time.Microsecond)
				}
			}
		})
		return func() int { tb.Run(); return injected }, tb.Shutdown
	}},
	{"board.vci_lookup", 2000000, func(n int) (func() int, func()) {
		e := sim.NewEngine(1)
		h := hostsim.New(e, hostsim.DEC5000_200(), 0)
		b := board.New(e, h, board.Config{})
		const bound = 1024
		for v := 0; v < bound; v++ {
			b.BindVCI(atm.VCI(100+v), 1+v%(board.NumChannels-1))
		}
		return func() int {
			found := 0
			for i := 0; i < n; i++ {
				if b.LookupVCI(atm.VCI(100+(i*7)%bound)) != nil {
					found++
				}
			}
			return found
		}, e.Shutdown
	}},
	{"dpm.word", 200000, func(n int) (func() int, func()) {
		e := sim.NewEngine(1)
		h := hostsim.New(e, hostsim.DEC5000_200(), 0)
		m := dpm.New(e, h.Bus)
		e.Go("poll", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				m.ReadWord(p, dpm.Host, uint32(i%1024)*4)
			}
		})
		return func() int { e.Run(); return n }, e.Shutdown
	}},
	{"fbuf.alloc_free", 100000, func(n int) (func() int, func()) {
		e := sim.NewEngine(1)
		h := hostsim.New(e, hostsim.DEC5000_200(), 0)
		mg := fbuf.NewManager(h, 4)
		doms := []*fbuf.Domain{fbuf.NewDomain(h, "drv"), fbuf.NewDomain(h, "app")}
		e.Go("define", func(p *sim.Proc) {
			if err := mg.DefinePath(p, 101, doms, 2, 2048); err != nil {
				panic(err)
			}
		})
		e.Run()
		done := 0
		e.Go("alloc-free", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				fb, err := mg.Alloc(p, 101, doms[0], 2048)
				if err != nil {
					return
				}
				mg.Free(fb)
				done++
			}
		})
		return func() int { e.Run(); return done }, e.Shutdown
	}},
	{"proto.udp_tx_per_cell", 400, func(n int) (func() int, func()) {
		tb := core.NewTestbed(core.Options{TxIsolated: true, Profile: hostsim.DEC3000_600(), Driver: driver.Config{Cache: driver.CacheNone}})
		return func() int {
			if _, err := tb.RunTransmitThroughput(4096, n); err != nil {
				panic(err)
			}
			cells, _ := tb.SinkStats()
			return int(cells)
		}, tb.Shutdown
	}},
}

// runLadder times every rung once, each under its own span.
func runLadder(tr *tracer, parent int, tiny bool) []rungResult {
	var out []rungResult
	for _, r := range ladder {
		n := r.n
		if tiny {
			if n /= 1000; n < 2 {
				n = 2
			}
		}
		sp := tr.begin(0, r.name, parent)
		out = append(out, timeRung(r, n))
		tr.end(sp)
	}
	return out
}

func timeRung(r rung, n int) rungResult {
	do, done := r.prep(n)
	defer done()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, heap := ms.Mallocs, ms.HeapAlloc
	t0 := time.Now()
	ops := do()
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - mallocs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return rungResult{
		name:     r.name,
		ops:      ops,
		nsPerOp:  ratio(float64(wall.Nanoseconds()), float64(ops)),
		allocsOp: ratio(float64(allocs), float64(ops)),
		retained: ratio(float64(int64(ms.HeapAlloc)-int64(heap)), float64(ops)),
	}
}

// budgetTerms pair a rung with the per-cell count of its public call in
// the workload. Rungs not listed have no public count (handoffs are not
// counted apart from events) or time a whole path that the listed terms
// already cover (inject, lookup, udp tx).
var budgetTerms = []struct{ rung, count string }{
	{"sim.event", "budget.events_per_cell"},
	{"sim.spawn", "budget.irqs_per_cell"},
	{"atm.link_cell", "budget.link_cells_per_cell"},
	{"atm.switch_cell", "budget.switch_cells_per_cell"},
	{"dpm.word", "budget.dpm_words_per_cell"},
	{"fbuf.alloc_free", "budget.fbuf_allocs_per_cell"},
}

// perLayer reduces a traced run to the per-layer metrics: the ladder,
// the simulated counts, the profile shares, the budget and the
// GOMAXPROCS and tracing-overhead comparisons. The GOMAXPROCS ratio is
// of wall time, since more procs can only shorten the wait, not the
// CPU time.
func perLayer(byMode map[mode][]sample, rungs []rungResult, prof *profile, o *outcome, out io.Writer) map[string]metric {
	medianOf := func(m mode, f func(sample) float64) float64 {
		var vs []float64
		for _, s := range byMode[m] {
			vs = append(vs, f(s))
		}
		return median(vs)
	}
	un, tr := medianOf(untraced, sample.nsPerCell), medianOf(traced, sample.nsPerCell)
	wall := medianOf(untraced, sample.wallPerCell)
	res := map[string]metric{
		"trace.untraced_ns_per_cell": {un, "ns"},
		"trace.traced_ns_per_cell":   {tr, "ns"},
		"trace.overhead_ns_per_cell": {tr - un, "ns"},
		"host.wall_ns_per_cell":      {wall, "ns"},
		"sim.gomaxprocs1_ratio":      {ratio(wall, medianOf(gomaxprocs1, sample.wallPerCell)), "ratio"},
	}
	ns := map[string]float64{}
	for _, r := range rungs {
		ns[r.name] = r.nsPerOp
		res[r.name+"_ns"] = metric{r.nsPerOp, "ns"}
		res[r.name+"_allocs"] = metric{r.allocsOp, "count/op"}
		if r.name == "sim.spawn" {
			res["sim.spawn_retained_b"] = metric{r.retained, "B"}
		}
	}
	for name, v := range o.counts {
		res[name] = metric{v, countUnit(name)}
	}
	for m, v := range prof.shares() {
		res["prof."+m] = metric{v, "%"}
	}
	explained := 0.0
	for _, t := range budgetTerms {
		term := ns[t.rung] * o.counts[t.count]
		fmt.Fprintf(out, "# budget %-16s %10.2f ns/op x %8.3f per cell = %10.2f ns/cell\n", t.rung, ns[t.rung], o.counts[t.count], term)
		explained += term
	}
	fmt.Fprintf(out, "# budget no public count: sim.handoff (not counted apart from events); whole-path rungs board.inject_cell, board.vci_lookup, proto.udp_tx_per_cell are not summed\n")
	res["budget.explained_ns_per_cell"] = metric{explained, "ns"}
	res["budget.remainder_ns_per_cell"] = metric{un - explained, "ns"}
	return res
}

// countUnit is the unit of a simulated count by its name.
func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_per_cell"):
		return "count/cell"
	case strings.HasSuffix(name, "_per_pdu"):
		return "count/pdu"
	}
	return "count"
}
