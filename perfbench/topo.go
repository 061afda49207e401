package main

import (
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"repro/internal/adc"
	"repro/internal/atm"
	"repro/internal/board"
	"repro/internal/driver"
	"repro/internal/fbuf"
	"repro/internal/hostsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// topo lists the components of one built system whose Stats() the
// benchmark reads. A workload fills in what it built; nil fields and
// empty slices mean the layer is not on that workload's path.
type topo struct {
	engines []*sim.Engine
	hosts   []*hostsim.Host
	boards  []*board.Board
	drivers []*driver.Driver
	rdps    []*proto.RDP
	links   []*atm.StripeGroup // back-to-back stripe groups (a switch reports its own)
	// generated counts the cells a board's fictitious-PDU generator put
	// straight into its receive FIFO, bypassing every link.
	generated int64
	sw        *atm.Switch
	fbm       *fbuf.Manager
	adcs      []*adc.Manager
	// servers are the hosts whose CPU load hostsim.cpu_busy_frac reports:
	// the echoing, generating or fanned-into side of each experiment, one
	// per independent system (outcome.simElapsed sums those systems).
	servers []*hostsim.Host
}

// outcome is what one repeat of a workload produced: the op accounting,
// the simulated results and the per-layer counts, all deterministic for
// a given seed.
type outcome struct {
	ops, failed int
	failures    []string // first few failed ops, named
	notes       []string // simulated results worth a line in the report
	conserve    []string // conservation laws that did not hold
	cells       int64    // cells received by every board
	simElapsed  time.Duration
	simRTTus    float64
	goodputMbps float64
	paperErrPct float64
	fingerprint string
	counts      map[string]float64
}

// fail records one failed op; only the first few are kept by name.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// expect records a conservation law that did not hold.
func (o *outcome) expect(ok bool, format string, args ...any) {
	if !ok {
		o.conserve = append(o.conserve, fmt.Sprintf(format, args...))
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finish reads every layer's Stats() at the end of the measured phase:
// it checks cell conservation, derives the per-layer counts, and hashes
// the simulated results (the workload's own results in h, then every
// counter) into the fingerprint.
func (t *topo) finish(o *outcome, h hash.Hash) {
	var bs board.Stats
	for _, b := range t.boards {
		s := b.Stats()
		fmt.Fprintf(h, "board %+v\n", s)
		bs.CellsTx += s.CellsTx
		bs.CellsRx += s.CellsRx
		bs.PDUsRx += s.PDUsRx
		bs.PDUsDropped += s.PDUsDropped
		bs.CellsDroppedFIFO += s.CellsDroppedFIFO
		bs.CombinedDMAs += s.CombinedDMAs
		bs.SingleDMAs += s.SingleDMAs
		bs.RxIRQs += s.RxIRQs
		bs.TxIRQs += s.TxIRQs
	}
	o.cells = bs.CellsRx

	var ds driver.Stats
	for _, d := range t.drivers {
		s := d.Stats()
		fmt.Fprintf(h, "driver %+v\n", s)
		ds.TxStalls += s.TxStalls
		ds.RxAborted += s.RxAborted
	}

	var dmaWords, cacheMiss, cacheAll, dpmAcc int64
	var busy time.Duration
	for _, hs := range t.hosts {
		bus, c := hs.Bus.Stats(), hs.Cache.Stats()
		fmt.Fprintf(h, "bus %+v\ncache %+v\ncpu %d\n", bus, c, hs.CPU.BusyTime())
		dmaWords += bus.DMAReadWords + bus.DMAWriteWords
		cacheMiss += c.ReadMisses + c.WriteMisses
		cacheAll += c.ReadMisses + c.WriteMisses + c.ReadHits + c.WriteHits
	}
	for _, hs := range t.servers {
		busy += hs.CPU.BusyTime()
	}
	for _, b := range t.boards {
		s := b.DPM.Stats()
		fmt.Fprintf(h, "dpm %+v\n", s)
		dpmAcc += s.HostReads + s.HostWrites + s.BoardReads + s.BoardWrites
	}

	// Every cell a board transmits either reaches a board's receive
	// FIFO (plus the cells a board's fictitious generator makes there)
	// or is counted as dropped on the way.
	arrived := bs.CellsRx + bs.CellsDroppedFIFO - t.generated
	var ls atm.LinkStats
	for _, g := range t.links {
		s := g.Stats()
		fmt.Fprintf(h, "link %+v\n", s)
		ls.Sent += s.Sent
		ls.Delivered += s.Delivered
		ls.Lost += s.Lost
	}
	if len(t.links) > 0 {
		o.expect(ls.Sent == bs.CellsTx, "links sent %d != boards' cells tx %d", ls.Sent, bs.CellsTx)
		o.expect(ls.Sent == ls.Delivered+ls.Lost, "links sent %d != delivered %d + lost %d", ls.Sent, ls.Delivered, ls.Lost)
		o.expect(ls.Delivered == arrived, "links delivered %d != cells arrived at boards %d", ls.Delivered, arrived)
	}
	var ss atm.SwitchStats
	if t.sw != nil {
		ss = t.sw.Stats()
		fmt.Fprintf(h, "switch %+v\n", ss)
		o.expect(ss.In == bs.CellsTx, "switch in %d != boards' cells tx %d", ss.In, bs.CellsTx)
		o.expect(ss.In == ss.Forwarded+ss.Dropped+ss.NoRoute,
			"switch in %d != forwarded %d + dropped %d + no-route %d", ss.In, ss.Forwarded, ss.Dropped, ss.NoRoute)
		o.expect(ss.Forwarded == arrived, "switch forwarded %d != cells arrived at boards %d", ss.Forwarded, arrived)
	}

	var rs proto.RDPStats
	for _, r := range t.rdps {
		s := r.Stats()
		fmt.Fprintf(h, "rdp %+v\n", s)
		rs.DataSent += s.DataSent
		rs.Retransmits += s.Retransmits
		rs.Timeouts += s.Timeouts
	}
	var fs fbuf.Stats
	if t.fbm != nil {
		fs = t.fbm.Stats()
		fmt.Fprintf(h, "fbuf %+v\n", fs)
	}
	var vios int64
	for _, m := range t.adcs {
		for i := 1; i < board.NumChannels; i++ {
			vios += m.Violations(i)
		}
	}
	var events uint64
	for _, e := range t.engines {
		events += e.Events()
	}
	fmt.Fprintf(h, "events %d elapsed %d violations %d\n", events, o.simElapsed, vios)
	for i := int64(0); i < vios; i++ {
		o.fail("ADC violation %d", i+1)
	}

	cells := float64(o.cells)
	o.counts = map[string]float64{
		"sim.events_per_cell":          ratio(float64(events), cells),
		"sim.goroutines_end":           float64(runtime.NumGoroutine()),
		"hostsim.cpu_busy_frac":        ratio(float64(busy), float64(o.simElapsed)),
		"board.irqs_per_pdu":           ratio(float64(bs.RxIRQs+bs.TxIRQs), float64(bs.PDUsRx)),
		"board.combined_dma_frac":      ratio(float64(bs.CombinedDMAs), float64(bs.CombinedDMAs+bs.SingleDMAs)),
		"board.fifo_drops":             float64(bs.CellsDroppedFIFO),
		"board.pdus_dropped":           float64(bs.PDUsDropped),
		"bus.dma_words_per_cell":       ratio(float64(dmaWords), cells),
		"cache.miss_ratio":             ratio(float64(cacheMiss), float64(cacheAll)),
		"dpm.accesses_per_pdu":         ratio(float64(dpmAcc), float64(bs.PDUsRx)),
		"atm.switch_drop_frac":         ratio(float64(ss.Dropped), float64(ss.In)),
		"atm.switch_marked":            float64(ss.Marked),
		"proto.rdp_retx_per_pdu":       ratio(float64(rs.Retransmits), float64(rs.DataSent)),
		"proto.rdp_timeouts":           float64(rs.Timeouts),
		"fbuf.hit_ratio":               ratio(float64(fs.CachedAllocs), float64(fs.CachedAllocs+fs.UncachedAllocs)),
		"fbuf.evictions":               float64(fs.PathEvictions),
		"adc.violations":               float64(vios),
		"driver.tx_stalls":             float64(ds.TxStalls),
		"driver.rx_aborted":            float64(ds.RxAborted),
		"budget.events_per_cell":       ratio(float64(events), cells),
		"budget.irqs_per_cell":         ratio(float64(bs.RxIRQs+bs.TxIRQs), cells),
		"budget.link_cells_per_cell":   ratio(float64(ls.Sent), cells),
		"budget.switch_cells_per_cell": ratio(float64(ss.In), cells),
		"budget.dpm_words_per_cell":    ratio(float64(dpmAcc), cells),
		"budget.fbuf_allocs_per_cell":  ratio(float64(fs.CachedAllocs+fs.UncachedAllocs), cells),
	}
	o.fingerprint = hex.EncodeToString(h.Sum(nil))
}
