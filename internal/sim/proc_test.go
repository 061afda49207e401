package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		woke = p.Now()
	})
	e.Run()
	e.Shutdown()
	if woke != Time(10*time.Microsecond) {
		t.Errorf("woke at %v, want 10µs", woke)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100 * time.Nanosecond)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	e.Shutdown()
	want := []Time{100, 200, 300}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(1)
		var log []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(100 * time.Nanosecond)
				log = append(log, fmt.Sprintf("a%d@%d", i, p.Now()))
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(150 * time.Nanosecond)
				log = append(log, fmt.Sprintf("b%d@%d", i, p.Now()))
			}
		})
		e.Run()
		e.Shutdown()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("non-deterministic interleaving (length)")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("non-deterministic interleaving: run0=%v runN=%v", first, again)
			}
		}
	}
}

func TestZeroSleepIsSchedulingPoint(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	e.Shutdown()
	// a starts first (spawned first), yields at Sleep(0), b runs, then a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeSleepPanicsThroughRun(t *testing.T) {
	e := NewEngine(1)
	e.Go("p", func(p *Proc) { p.Sleep(-1) })
	defer func() {
		if recover() == nil {
			t.Error("negative sleep did not propagate a panic out of Run")
		}
	}()
	e.Run()
}

func TestProcPanicPropagatesToEngine(t *testing.T) {
	e := NewEngine(1)
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Nanosecond)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	e.Run()
}

func TestSleepUntilPastIsImmediate(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Microsecond)
		p.SleepUntil(0) // in the past: just a scheduling point
		woke = p.Now()
	})
	e.Run()
	e.Shutdown()
	if woke != Time(time.Microsecond) {
		t.Errorf("woke at %v, want 1µs", woke)
	}
}

func TestProcDone(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("p", func(p *Proc) { p.Sleep(time.Nanosecond) })
	if p.Done() {
		t.Error("proc done before running")
	}
	e.Run()
	if !p.Done() {
		t.Error("proc not done after body returned")
	}
	e.Shutdown()
}

func TestShutdownUnblocksSleepingProc(t *testing.T) {
	e := NewEngine(1)
	cond := NewCond(e)
	reached := false
	e.Go("stuck", func(p *Proc) {
		cond.Wait(p) // nobody will ever signal
		reached = true
	})
	e.Run()
	e.Shutdown() // must not hang
	if reached {
		t.Error("killed proc continued past Wait")
	}
}

// TestShutdownNeverStartedProc: a proc whose start event never fired
// must not run its body at Shutdown, whether it is fresh or a pooled
// proc handed a new body, and Shutdown must end every coroutine the
// engine started.
func TestShutdownNeverStartedProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	ran := 0
	body := func(p *Proc) {
		ran++
		p.Sleep(time.Microsecond)
	}
	e.Go("fresh", body)
	e.Shutdown()
	if ran != 0 {
		t.Errorf("Shutdown ran %d bodies of never-started procs", ran)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before the engine", n, base)
	}

	e = NewEngine(1)
	e.Go("first", func(*Proc) {})
	e.Run()
	e.Go("reused", body)
	e.Shutdown()
	if ran != 0 {
		t.Errorf("Shutdown ran %d bodies of never-started procs", ran)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before the engine", n, base)
	}
}

// TestShutdownReleasesIdleProcs: after a run that leaves finished procs
// pooled, Shutdown ends their coroutines too.
func TestShutdownReleasesIdleProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		d := time.Duration(i)
		e.Go("p", func(p *Proc) { p.Sleep(d) })
	}
	e.Run()
	if len(e.idle) != 8 || len(e.procs) != 8 {
		t.Fatalf("after the run: %d idle of %d procs, want 8 of 8", len(e.idle), len(e.procs))
	}
	e.Shutdown()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before the engine", n, base)
	}
}

// TestPoolReusesFinishedProcs: procs spawned one after another share
// one coroutine, and a spawn while another proc is live takes a second.
func TestPoolReusesFinishedProcs(t *testing.T) {
	e := NewEngine(1)
	var names []string
	e.Go("driver", func(p *Proc) {
		for i := 0; i < 5; i++ {
			e.Go(fmt.Sprintf("irq%d", i), func(c *Proc) {
				c.Sleep(time.Nanosecond)
				names = append(names, c.Name())
			})
			p.Sleep(2 * time.Nanosecond)
		}
	})
	e.Run()
	defer e.Shutdown()
	if want := "[irq0 irq1 irq2 irq3 irq4]"; fmt.Sprint(names) != want {
		t.Errorf("bodies ran as %v, want %s", names, want)
	}
	if len(e.procs) != 2 {
		t.Errorf("engine holds %d procs, want 2 (the driver and one reused irq proc)", len(e.procs))
	}
}

// TestPanickedProcIsNotPooled: a body's panic re-raises on the Run
// caller, the panicked proc is not reused, the run can continue, and
// Shutdown afterwards neither hangs nor leaks a goroutine.
func TestPanickedProcIsNotPooled(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	bad := e.Go("bad", func(p *Proc) {
		p.Sleep(time.Nanosecond)
		panic("boom")
	})
	e.Go("good", func(p *Proc) { p.Sleep(2 * time.Nanosecond) })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		e.Run()
	}()
	if !bad.Done() {
		t.Error("panicked proc not done")
	}
	e.Run()
	for _, p := range e.idle {
		if p == bad {
			t.Error("panicked proc was pooled")
		}
	}
	if again := e.Go("again", func(*Proc) {}); again == bad {
		t.Error("Go reused the panicked proc")
	}
	e.Run()
	e.Shutdown()
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Shutdown, %d before the engine", n, base)
	}
}

func TestShutdownTwiceIsSafe(t *testing.T) {
	e := NewEngine(1)
	e.Go("p", func(p *Proc) {})
	e.Run()
	e.Shutdown()
	e.Shutdown()
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine(1)
	var childRan Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Microsecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(time.Microsecond)
			childRan = c.Now()
		})
	})
	e.Run()
	e.Shutdown()
	if childRan != Time(2*time.Microsecond) {
		t.Errorf("child finished at %v, want 2µs", childRan)
	}
}

func TestProcName(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("worker-7", func(p *Proc) {})
	if p.Name() != "worker-7" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Engine() != e {
		t.Error("Engine() mismatch")
	}
	e.Run()
	e.Shutdown()
}
