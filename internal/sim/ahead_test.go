package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// --- Horizon and Stop regressions ---

// TestRunUntilZeroRunsOnlyInstantZero: a horizon of 0 is a horizon,
// not "no limit". Only the event at 0 may run.
func TestRunUntilZeroRunsOnlyInstantZero(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	e.At(0, func() { ran = append(ran, e.Now()) })
	e.At(Time(time.Microsecond), func() { ran = append(ran, e.Now()) })
	if got := e.RunUntil(0); got != 0 {
		t.Errorf("RunUntil(0) returned %v, want 0", got)
	}
	if len(ran) != 1 || ran[0] != 0 {
		t.Errorf("RunUntil(0) ran events at %v, want only [0]", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("%d events pending after RunUntil(0), want 1", e.Pending())
	}
}

// TestRunUntilAfterStopKeepsClock: when a callback stops the run with
// an event at or before the horizon still queued, the clock must not
// jump over it, or the next Run would find its queue in the past.
func TestRunUntilAfterStopKeepsClock(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	e.At(5, func() { ran = append(ran, e.Now()); e.Stop() })
	e.At(7, func() { ran = append(ran, e.Now()) })
	if got := e.RunUntil(10); got != 5 {
		t.Errorf("RunUntil(10) after Stop returned %v, want 5", got)
	}
	if end := e.Run(); end != 7 {
		t.Errorf("Run after a stopped RunUntil returned %v, want 7", end)
	}
	if len(ran) != 2 || ran[1] != 7 {
		t.Errorf("events ran at %v, want [5 7]", ran)
	}
	// With nothing left at or before the horizon the clock advances.
	if got := e.RunUntil(20); got != 20 {
		t.Errorf("RunUntil(20) on an empty queue returned %v, want 20", got)
	}
}

// TestShardWindowAtZeroHonorsLimit: with a 1 ns lookahead the first
// window is [0, 0]; a shard must not run its later events inside it.
func TestShardWindowAtZeroHonorsLimit(t *testing.T) {
	g := NewShardGroup(1, 2)
	defer g.Shutdown()
	g.AddLookahead(1)
	e0 := g.Engine(0)
	e0.At(0, func() {})
	e0.At(10, func() {})
	var clocks []Time
	g.OnBarrier(func() { clocks = append(clocks, e0.Now()) })
	g.Run()
	if len(clocks) < 2 || clocks[0] != 0 {
		t.Errorf("shard 0 clock at each barrier %v, want the first at 0", clocks)
	}
}

// TestShardGroupRunUntilAfterStop: Stop inside a shard only ends that
// shard's window; the group keeps dispatching windows until nothing at
// or before the horizon is queued, so advancing every clock afterwards
// never leaves an event in a shard's past.
func TestShardGroupRunUntilAfterStop(t *testing.T) {
	g := NewShardGroup(1, 2)
	defer g.Shutdown()
	g.AddLookahead(time.Microsecond)
	e0 := g.Engine(0)
	var ran []Time
	e0.At(5, func() { ran = append(ran, e0.Now()); e0.Stop() })
	e0.At(7, func() { ran = append(ran, e0.Now()) })
	e0.At(20, func() { ran = append(ran, e0.Now()) })
	if got := g.RunUntil(10); got != 10 {
		t.Errorf("group RunUntil(10) returned %v, want 10", got)
	}
	g.Run()
	if fmt.Sprint(ran) != "[5ns 7ns 20ns]" {
		t.Errorf("events ran at %v, want [5ns 7ns 20ns]", ran)
	}
}

// --- Run-ahead sleeps ---

// TestRunAheadStopsAtHorizon: a sleep past the RunUntil horizon is
// queued, not run ahead, so the clock stops at the horizon and the proc
// wakes at its own time on the next Run.
func TestRunAheadStopsAtHorizon(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var woke Time = -1
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		woke = p.Now()
	})
	if got := e.RunUntil(5); got != 5 {
		t.Errorf("RunUntil(5) returned %v, want 5", got)
	}
	if woke != -1 {
		t.Fatalf("sleeper woke at %v inside a horizon of 5", woke)
	}
	e.Run()
	if woke != 10 {
		t.Errorf("sleeper woke at %v, want 10", woke)
	}
}

// TestRunAheadStopsAtPendingStop: after Stop a sleep goes through the
// queue, so Run returns at the current instant.
func TestRunAheadStopsAtPendingStop(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var woke Time = -1
	e.Go("stopper", func(p *Proc) {
		p.Sleep(3)
		e.Stop()
		p.Sleep(10)
		woke = p.Now()
	})
	if got := e.Run(); got != 3 {
		t.Errorf("stopped Run returned %v, want 3", got)
	}
	if woke != -1 {
		t.Fatalf("sleeper ran ahead past a pending Stop to %v", woke)
	}
	if got := e.Run(); got != 13 || woke != 13 {
		t.Errorf("second Run returned %v with wakeup at %v, want 13 and 13", got, woke)
	}
}

// TestRunAheadTiesWakeInCanonicalOrder: a wakeup that ties with a
// queued event, local or injected, is never run ahead; it takes its
// place in the (at, schedAt, xid, seq) order.
func TestRunAheadTiesWakeInCanonicalOrder(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var got []string
	rec := func(a any) { got = append(got, a.(string)) }
	e.AtCall(10, rec, "local@0")                  // (10, 0, 0, 1)
	e.InjectStamped(10, 0, 1, 1, rec, "inject@0") // (10, 0, 1, 1)
	e.InjectStamped(10, 2, 1, 2, rec, "inject@2") // (10, 2, 1, 2)
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(2)
		p.SleepUntil(10) // stamped (10, 2, 0, seq)
		got = append(got, "sleeper")
	})
	e.Run()
	want := "local@0 inject@0 sleeper inject@2"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("order %q, want %q", s, want)
	}
}

// TestRunAheadCountsSkippedWakeups: a lone sleeper runs ahead at every
// sleep, yet Events counts each skipped wakeup.
func TestRunAheadCountsSkippedWakeups(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	var at []Time
	e.Go("lone", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Duration(i + 1))
			at = append(at, p.Now())
		}
	})
	if end := e.Run(); end != 15 {
		t.Errorf("Run returned %v, want 15", end)
	}
	if fmt.Sprint(at) != "[1ns 3ns 6ns 10ns 15ns]" {
		t.Errorf("wakeups at %v, want [1ns 3ns 6ns 10ns 15ns]", at)
	}
	// One start event plus five wakeups.
	if e.Events() != 6 {
		t.Errorf("Events() = %d, want 6", e.Events())
	}
}

// TestSleepDuringShutdownDoesNotRunAhead: a killed proc's deferred
// sleep must not move the clock of an engine that is not running, and a
// zero-length one returns at once without queuing a wakeup.
func TestSleepDuringShutdownDoesNotRunAhead(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	e.Go("waiter", func(p *Proc) {
		defer p.Sleep(100)
		c.Wait(p)
	})
	e.Run()
	e.Shutdown()
	if e.Now() != 0 {
		t.Errorf("clock at %v after Shutdown, want 0", e.Now())
	}

	e = NewEngine(1)
	c = NewCond(e)
	finished := false
	e.Go("waiter", func(p *Proc) {
		defer func() {
			p.Sleep(0)
			p.SleepUntil(p.Now())
			finished = true
		}()
		c.Wait(p)
	})
	e.Run()
	e.Shutdown()
	if !finished || e.Pending() != 0 {
		t.Errorf("zero-length sleeps at Shutdown: finished %v, %d events pending; want true, 0", finished, e.Pending())
	}
}

// sleepProgram runs a seeded program of procs that sleep, hand a
// Resource over, signal a Cond and schedule plain events, and returns
// its step log followed by the engine's final clock, event count and
// scheduling sequence.
// With viaQueue every positive sleep is scheduled as an event and
// blocks, the way every sleep ran before run-ahead existed.
func sleepProgram(seed int64, viaQueue bool) string {
	e := NewEngine(seed)
	defer e.Shutdown()
	r := rand.New(rand.NewSource(seed))
	bus := NewResource(e, "bus")
	cond := NewCond(e)
	var log strings.Builder
	step := func(who string, what string) { fmt.Fprintf(&log, "%d %s %s\n", e.Now(), who, what) }
	sleep := func(p *Proc, d time.Duration) {
		if viaQueue && d > 0 {
			e.wake(e.Now().Add(d), p)
			p.block()
			return
		}
		p.Sleep(d)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Go(name, func(p *Proc) {
			for k := 0; k < 200; k++ {
				switch r.Intn(6) {
				case 0, 1:
					sleep(p, time.Duration(r.Intn(4)))
					step(name, "slept")
				case 2:
					bus.Acquire(p)
					sleep(p, time.Duration(1+r.Intn(3)))
					bus.Release()
					step(name, "used bus")
				case 3:
					cond.Signal()
					step(name, "signalled")
				case 4:
					if cond.Waiting() < 3 {
						cond.Wait(p)
						step(name, "woke")
					}
				case 5:
					d := Time(r.Intn(3))
					e.At(e.Now()+d, func() { step("event", name); cond.Broadcast() })
				}
			}
			step(name, "exit")
		})
	}
	var tick func()
	tick = func() {
		cond.Broadcast()
		if e.Now() < 2000 {
			e.At(e.Now()+7, tick)
		}
	}
	e.At(0, tick)
	e.Run()
	fmt.Fprintf(&log, "end %d events %d seq %d\n", e.Now(), e.Events(), e.seq)
	return log.String()
}

// TestRunAheadMatchesQueuedSleeps: run-ahead is unobservable. The same
// program gives the same step log, final clock, Events count and
// scheduling sequence whether sleeps run ahead or always go through the
// queue.
func TestRunAheadMatchesQueuedSleeps(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ahead, queued := sleepProgram(seed, false), sleepProgram(seed, true)
		if ahead != queued {
			a, q := strings.Split(ahead, "\n"), strings.Split(queued, "\n")
			for i := 0; i < len(a) && i < len(q); i++ {
				if a[i] != q[i] {
					t.Fatalf("seed %d: logs diverge at line %d: run-ahead %q, queued %q", seed, i, a[i], q[i])
				}
			}
			t.Fatalf("seed %d: logs differ in length: %d vs %d lines", seed, len(a), len(q))
		}
		if !strings.Contains(ahead, "used bus") || !strings.Contains(ahead, "woke") {
			t.Fatalf("seed %d: program never used the bus or woke a waiter", seed)
		}
	}
}

// TestRunAheadZeroAllocSteadyState: once warm, procs that sleep (run
// ahead, as the only runnable proc) and hand a turn to each other
// through a Cond allocate nothing.
func TestRunAheadZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	// Two procs pass a turn back and forth through a Cond until the
	// round's budget is spent, then both wait for the next round.
	c := NewCond(e)
	turn, budget := 0, 0
	for me := 0; me < 2; me++ {
		me := me
		e.Go("ping", func(p *Proc) {
			for {
				for turn != me || budget == 0 {
					c.Wait(p)
				}
				p.Sleep(1)
				budget--
				turn = 1 - me
				c.Signal()
			}
		})
	}
	kick := func(any) { c.Broadcast() }
	round := func() {
		budget = 16
		e.AtCall(e.Now(), kick, nil)
		e.Run()
	}
	round()
	before := e.Events()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("run-ahead sleeps and Cond handoff allocate %.1f per round, want 0", allocs)
	}
	if e.Events() == before {
		t.Fatal("rounds executed no events")
	}
}

// --- Benchmarks (exercised by the CI bench smoke) ---

// BenchmarkProcHandoff: two procs alternate through a Cond, so every
// op is a real coroutine switch into a proc and back. Run-ahead never
// applies: each wakeup is a queued same-instant event.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	c := NewCond(e)
	turn := 0
	for me := 0; me < 2; me++ {
		me := me
		// Proc 0 takes ops 0, 2, 4, …; proc 1 takes ops 1, 3, 5, ….
		iters := (b.N + 1 - me) / 2
		e.Go("ping", func(p *Proc) {
			for i := 0; i < iters; i++ {
				for turn != me {
					c.Wait(p)
				}
				turn = 1 - me
				c.Signal()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleepRunAhead: a lone proc sleeping 1 ns. Its wakeup is
// always the next event, so every sleep runs ahead.
func BenchmarkSleepRunAhead(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	e.Go("lone", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSameInstantEvent: a chain of events each scheduling the
// next at the current instant, so every op is one heap push, pop and
// dispatch.
func BenchmarkSameInstantEvent(b *testing.B) {
	e := NewEngine(1)
	defer e.Shutdown()
	left := b.N
	var fire func(any)
	fire = func(any) {
		if left--; left > 0 {
			e.AtCall(e.Now(), fire, nil)
		}
	}
	e.AtCall(0, fire, nil)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
