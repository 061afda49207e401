package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hostsim"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
)

// twoLanes records a fixed stream on two engines: lane "a" emits at 10,
// 30 and 30; lane "b" at 20 and 30.
func twoLanes() *Timeline {
	tl := NewTimeline()
	ea, eb := sim.NewEngine(1), sim.NewEngine(1)
	tl.Attach(ea, "a")
	tl.Attach(eb, "b")
	ea.Emit(sim.TraceEvent{At: 10_000, Ph: 'i', Comp: "A-rx", Cat: CatIRQ, Name: "rx-irq"})
	ea.Emit(sim.TraceEvent{At: 30_000, Ph: 'i', Comp: "A-tx", Cat: CatPDU, Name: "tx-start", VCI: 7, Arg: 2})
	ea.Emit(sim.TraceEvent{At: 30_000, Ph: 'i', Comp: "A-ch0", Cat: CatDrv, Name: "tx-ring-full"})
	eb.Emit(sim.TraceEvent{At: 20_000, Ph: 'i', Comp: "B-tx1", Cat: CatCell, Name: "tx", VCI: 7, Arg: 44})
	eb.Emit(sim.TraceEvent{At: 30_000, Dur: 1500, Ph: 'X', Comp: "B-rx", Cat: CatPDU, Name: "reasm", VCI: 7, Arg: 88})
	return tl
}

func text(t *testing.T, tl *Timeline, cats []string, last int) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteText(&buf, cats, last); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

func TestWriteTextMergesLanesInCanonicalOrder(t *testing.T) {
	// Time first, then lane attach order, then emission order.
	want := []string{
		"      10.000µs [irq  ] A-rx rx-irq arg=0",
		"      20.000µs [cell ] B-tx1 tx vci=7 arg=44",
		"      30.000µs [pdu  ] A-tx tx-start vci=7 arg=2",
		"      30.000µs [drv  ] A-ch0 tx-ring-full arg=0",
		"      30.000µs [pdu  ] B-rx reasm dur=1.500µs vci=7 arg=88",
	}
	got := text(t, twoLanes(), nil, 0)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("WriteText:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestWriteTextFiltersCategories(t *testing.T) {
	got := text(t, twoLanes(), []string{CatPDU, CatIRQ}, 0)
	if len(got) != 3 {
		t.Fatalf("pdu+irq lines = %d, want 3:\n%s", len(got), strings.Join(got, "\n"))
	}
	for _, l := range got {
		if !strings.Contains(l, "[pdu  ]") && !strings.Contains(l, "[irq  ]") {
			t.Errorf("filtered listing kept %q", l)
		}
	}
	if got := text(t, twoLanes(), []string{"nope"}, 0); len(got) != 1 || got[0] != "" {
		t.Errorf("unknown category printed %q", got)
	}
}

func TestWriteTextKeepsLastN(t *testing.T) {
	// The window applies after the filter, and keeps the newest records.
	got := text(t, twoLanes(), []string{CatPDU, CatCell}, 2)
	if len(got) != 2 || !strings.Contains(got[0], "tx-start") || !strings.Contains(got[1], "reasm") {
		t.Errorf("last 2 pdu+cell records:\n%s", strings.Join(got, "\n"))
	}
	if got := text(t, twoLanes(), nil, 100); len(got) != 5 {
		t.Errorf("a window wider than the stream printed %d of 5", len(got))
	}
}

func TestEndToEndTraceCapture(t *testing.T) {
	// Attach a timeline to a real transfer and verify the instrumented
	// components produced the expected categories.
	tb := core.NewTestbed(core.Options{
		Profile: hostsim.DEC3000_600(),
		Driver:  driver.Config{Cache: driver.CacheNone},
	})
	defer tb.Shutdown()
	tl := NewTimeline()
	tl.Attach(tb.Eng, "testbed")

	tx, err := tb.A.Raw.Open(proto.RawOpen{VCI: 44})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := tb.B.Raw.Open(proto.RawOpen{VCI: 44})
	if err != nil {
		t.Fatal(err)
	}
	got := false
	rx.SetHandler(func(p *sim.Proc, m *msg.Message) { got = true })
	tb.Eng.Go("send", func(p *sim.Proc) {
		m, _ := msg.FromBytes(tb.A.Host.Kernel, make([]byte, 3000))
		tx.Push(p, m)
		tb.A.Drv.Flush(p)
	})
	tb.Eng.RunUntil(tb.Eng.Now().Add(50 * time.Millisecond))
	if !got {
		t.Fatal("message lost")
	}
	counts := map[string]int{}
	for _, le := range tl.merged() {
		counts[le.ev.Cat]++
	}
	if counts[CatCell] != atm.CellsFor(3000) {
		t.Errorf("cell records = %d, want %d", counts[CatCell], atm.CellsFor(3000))
	}
	if counts[CatPDU] < 3 { // tx start + rx complete + driver deliver
		t.Errorf("pdu records = %d", counts[CatPDU])
	}
	if counts[CatIRQ] != 1 {
		t.Errorf("irq records = %d, want 1", counts[CatIRQ])
	}
}
