package sim_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
)

// soakSpawns is the number of interrupt-style spawns in each soak.
const soakSpawns = 1_000_000

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// soakBounds tracks the live-proc peak of a soak and checks, at a
// checkpoint early in the run and again at the end, that the engine
// holds no more proc coroutines than that peak and that the heap has
// not grown since the checkpoint.
type soakBounds struct {
	t          *testing.T
	e          *sim.Engine
	live, peak int
	heapMark   uint64
}

func (s *soakBounds) start() {
	s.live++
	if s.live > s.peak {
		s.peak = s.live
	}
}

func (s *soakBounds) end() { s.live-- }

func (s *soakBounds) check(i int) {
	if n := sim.ProcCount(s.e); n > s.peak {
		s.t.Errorf("after %d spawns the engine holds %d procs, above the live peak %d", i, n, s.peak)
	}
	if i == soakSpawns/10 {
		s.heapMark = heapAfterGC()
		return
	}
	if i == soakSpawns {
		const slack = 1 << 20
		if h := heapAfterGC(); h > s.heapMark+slack {
			s.t.Errorf("heap grew from %d to %d bytes over %d spawns", s.heapMark, h, soakSpawns*9/10)
		}
	}
}

// TestSoakProcSpawnsStayBounded spawns a short proc per iteration from
// a long-lived driver proc, the way interrupt service does. The spawned
// procs sleep 0–3 ns while the driver steps 1 ns, so several run at
// once and finish out of spawn order; pooling must keep the engine's
// procs at the live peak and the heap flat.
func TestSoakProcSpawnsStayBounded(t *testing.T) {
	e := sim.NewEngine(1)
	s := &soakBounds{t: t, e: e}
	handled := 0
	irq := func(p *sim.Proc) {
		p.Sleep(time.Duration(p.Now() % 4))
		handled++
		s.end()
	}
	s.start()
	e.Go("driver", func(p *sim.Proc) {
		defer s.end()
		for i := 1; i <= soakSpawns; i++ {
			s.start()
			e.Go("irq", irq)
			p.Sleep(time.Nanosecond)
			if i%(soakSpawns/10) == 0 {
				s.check(i)
			}
		}
	})
	e.Run()
	e.Shutdown()
	if handled != soakSpawns {
		t.Errorf("handled %d spawns, want %d", handled, soakSpawns)
	}
	if s.peak < 3 {
		t.Errorf("live peak %d: the spawned procs never overlapped", s.peak)
	}
}

// TestSoakInterruptsStayBounded drives the same soak through
// hostsim.IntController.Assert, which spawns one proc per interrupt.
// Each handler outlasts the gap between interrupts, so handlers for the
// same line overlap, as they may once pending is cleared.
func TestSoakInterruptsStayBounded(t *testing.T) {
	e := sim.NewEngine(1)
	prof := hostsim.DEC3000_600()
	prof.InterruptCost = time.Nanosecond
	prof.CPUMemTrafficRatio = 0
	h := hostsim.New(e, prof, 16)
	s := &soakBounds{t: t, e: e}
	handled := 0
	h.Int.Handle(1, func(p *sim.Proc) {
		p.Sleep(3 * time.Nanosecond)
		handled++
		s.end()
	})
	s.start()
	e.Go("driver", func(p *sim.Proc) {
		defer s.end()
		for i := 1; i <= soakSpawns; i++ {
			s.start() // no Assert coalesces: Count is checked below
			h.Int.Assert(1)
			p.Sleep(2 * time.Nanosecond)
			if i%(soakSpawns/10) == 0 {
				s.check(i)
			}
		}
	})
	e.Run()
	e.Shutdown()
	if handled != soakSpawns || h.Int.Count(1) != soakSpawns {
		t.Errorf("handled %d interrupts of %d asserted, want %d", handled, h.Int.Count(1), soakSpawns)
	}
	if s.peak < 3 {
		t.Errorf("live peak %d: handlers never overlapped", s.peak)
	}
}
