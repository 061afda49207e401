// Package trace records the simulator's typed trace stream for
// debugging and for understanding where time goes — the
// software-visibility tool the paper's authors effectively had by
// instrumenting the i960 firmware.
//
// Components emit sim.TraceEvent records through sim.Engine.Emit,
// each site gated once by sim.Engine.Recording, so with no recorder
// installed an emission site costs one branch. A Timeline collects the
// records of one or more engines and renders them two ways from one
// canonical merge: WriteText for the categorized text listing
// (osiris-sim -tracecats) and WriteChrome for Perfetto.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Category names used by the instrumented components.
const (
	CatCell  = "cell"  // cells transmitted/received by a board
	CatPDU   = "pdu"   // PDU-level events (queued, delivered, dropped)
	CatIRQ   = "irq"   // host interrupts
	CatDrop  = "drop"  // losses: FIFO overflow, no buffers, AAL5 errors
	CatProto = "proto" // protocol decisions (recoveries, retransmits)
	CatDrv   = "drv"   // driver activity (stalls, reclaim)
)

// Timeline collects typed trace records (sim.TraceEvent) from one or
// more engines.
//
// Each attached engine gets its own lane (a Chrome "process"), and
// each distinct component within a lane gets a named thread track.
// In a sharded run every engine's goroutine appends only to its own
// lane, and rendering happens after the run quiesces, so no locking is
// needed; the merge both renderers use is canonical — ordered by
// (time, lane attach order, emission index) — making the output
// byte-identical per seed at any shard count for deterministic configs.
type Timeline struct {
	lanes []*lane
}

type lane struct {
	label string
	evs   []sim.TraceEvent
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Attach installs the timeline as eng's typed-trace recorder, under
// the given lane label (e.g. "shard0"). Call before the run starts.
func (tl *Timeline) Attach(eng *sim.Engine, label string) {
	ln := &lane{label: label}
	tl.lanes = append(tl.lanes, ln)
	eng.SetRecorder(func(ev sim.TraceEvent) { ln.evs = append(ln.evs, ev) })
}

// Len reports the total number of recorded events.
func (tl *Timeline) Len() int {
	n := 0
	for _, ln := range tl.lanes {
		n += len(ln.evs)
	}
	return n
}

// merged returns every event with its lane index, in canonical order.
func (tl *Timeline) merged() []laneEvent {
	out := make([]laneEvent, 0, tl.Len())
	for li, ln := range tl.lanes {
		for ei, ev := range ln.evs {
			out = append(out, laneEvent{ev: ev, lane: li, idx: ei})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.idx < b.idx
	})
	return out
}

type laneEvent struct {
	ev   sim.TraceEvent
	lane int
	idx  int
}

// WriteText writes the last records of the given categories (nil or
// empty: every category) to w, one line each, in the canonical merge
// order. last ≤ 0 writes them all. A line reads
//
//	<time>µs [<cat>] <track> <name> [dur=<span>µs] [vci=<vci>] arg=<arg>
//
// where dur appears on spans and vci when nonzero; arg is always
// printed, since zero (channel 0, say) is a value.
func (tl *Timeline) WriteText(w io.Writer, cats []string, last int) error {
	var sel []sim.TraceEvent
	for _, le := range tl.merged() {
		if len(cats) == 0 || slices.Contains(cats, le.ev.Cat) {
			sel = append(sel, le.ev)
		}
	}
	if last > 0 && len(sel) > last {
		sel = sel[len(sel)-last:]
	}
	bw := bufio.NewWriter(w)
	for _, ev := range sel {
		fmt.Fprintf(bw, "%12.3fµs [%-5s] %s %s", ev.At.Microseconds(), ev.Cat, ev.Comp, ev.Name)
		if ev.Ph == 'X' {
			fmt.Fprintf(bw, " dur=%.3fµs", ev.Dur.Microseconds())
		}
		if ev.VCI != 0 {
			fmt.Fprintf(bw, " vci=%d", ev.VCI)
		}
		fmt.Fprintf(bw, " arg=%d\n", ev.Arg)
	}
	return bw.Flush() // a failed write sticks and surfaces here
}
