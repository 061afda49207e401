package board

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/dpm"
	"repro/internal/queue"
	"repro/internal/sim"
)

// TestFIFODropsEmitOnceEach pins that each rx-FIFO loss leaves exactly
// one typed drop record: quota drops and overflow drops both match the
// board's own counters.
func TestFIFODropsEmitOnceEach(t *testing.T) {
	r := newRig(t, Config{RxFIFOCells: 8, RxFIFOQuota: 6})
	defer r.eng.Shutdown()
	names := map[string]int{}
	r.eng.SetRecorder(func(ev sim.TraceEvent) {
		if ev.Cat == "drop" {
			names[ev.Name]++
		}
	})
	r.b.OpenChannel(1, 1, nil)
	r.b.OpenChannel(2, 1, nil)
	r.b.BindVCI(10, 1)
	r.b.BindVCI(11, 2)
	// VCI 10 fills its quota of 6; VCI 11 then takes the last 2 FIFO
	// slots and overflows.
	for _, vci := range []atm.VCI{10, 11} {
		for i := 0; i < 20; i++ {
			r.b.receiveCell(atm.Cell{VCI: vci, Len: atm.CellPayload}, i%4)
		}
	}
	st := r.b.Stats()
	if st.CellsQuotaDropped == 0 || st.CellsDroppedFIFO == 0 {
		t.Fatalf("quota/overflow drops = %d/%d, want both nonzero", st.CellsQuotaDropped, st.CellsDroppedFIFO)
	}
	if got := names["rx-fifo-quota"]; int64(got) != st.CellsQuotaDropped {
		t.Errorf("rx-fifo-quota records = %d, board counted %d", got, st.CellsQuotaDropped)
	}
	if got := names["rx-fifo-overflow"]; int64(got) != st.CellsDroppedFIFO {
		t.Errorf("rx-fifo-overflow records = %d, board counted %d", got, st.CellsDroppedFIFO)
	}
	if len(names) != 2 {
		t.Errorf("drop records %v, want only the two FIFO kinds", names)
	}
}

// TestRecordedCellPathZeroAlloc pins that tracing costs no allocation
// on the board's per-cell path. A PDU loops from the transmit side back
// into the receive side (tx-start, per-cell tx, rx-FIFO counter, reasm
// span, rx-complete, rx-irq). With a non-allocating recorder installed,
// a 20-cell PDU allocates no more than a 2-cell one (the per-cell tx
// and rx path does 0 allocs), and no more than an unrecorded run.
func TestRecordedCellPathZeroAlloc(t *testing.T) {
	short, long := loopAllocs(t, 80, true), loopAllocs(t, 800, true)
	if long != short {
		t.Errorf("recorded: %d-cell PDU allocates %.0f, %d-cell PDU %.0f: the per-cell path allocates",
			atm.CellsFor(800), long, atm.CellsFor(80), short)
	}
	if plain := loopAllocs(t, 800, false); long != plain {
		t.Errorf("%d-cell PDU allocates %.0f recorded, %.0f unrecorded", atm.CellsFor(800), long, plain)
	}
}

// loopAllocs returns the steady-state allocations per PDU of size
// bytes looped from a board's transmit side into its own receive side.
func loopAllocs(t *testing.T, size int, record bool) float64 {
	t.Helper()
	r := newRig(t, Config{})
	defer r.eng.Shutdown()
	records := 0
	if record {
		r.eng.SetRecorder(func(sim.TraceEvent) { records++ })
	}
	r.b.BindVCI(5, 0)
	r.b.SetTxSink(func(c atm.Cell, link int) { r.b.InjectCell(c, link) })
	ch := r.b.KernelChannel()
	descs := r.writePDU(t, pattern(size, 3), []int{size}, 5)
	const period = 200 * time.Microsecond
	r.eng.Go("host", func(p *sim.Proc) {
		r.supplyFree(t, p, ch, 8, 1024)
		for next := p.Now(); ; next = next.Add(period) {
			p.SleepUntil(next)
			r.sendPDU(t, p, ch, descs)
			p.SleepUntil(next.Add(period / 2))
			// Recycle every delivered buffer onto the free ring.
			for {
				d, ok := ch.RecvRing.TryPop(p, dpm.Host)
				if !ok {
					break
				}
				ch.FreeRing.TryPush(p, dpm.Host, queue.Desc{Addr: d.Addr, Len: 1024})
			}
		}
	})
	step := func() { r.eng.RunUntil(r.eng.Now().Add(period)) }
	for i := 0; i < 10; i++ { // warm the pools
		step()
	}
	pdus := r.b.Stats().PDUsRx
	allocs := testing.AllocsPerRun(50, step)
	if got := r.b.Stats().PDUsRx - pdus; got != 51 || record && records == 0 {
		t.Fatalf("%d-byte loop delivered %d PDUs (want 51) and %d records", size, got, records)
	}
	return allocs
}
