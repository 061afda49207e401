package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// pingPong runs two procs that hand a turn back and forth through a
// pair of Conds for rounds round trips and returns the switches taken
// and the handoffs made (signals that woke the other proc).
func pingPong(t *testing.T, rounds int) (switches, handoffs uint64) {
	e := NewEngine(1)
	defer e.Shutdown()
	ca, cb := NewCond(e), NewCond(e)
	signal := func(c *Cond) {
		if c.Waiting() > 0 {
			handoffs++
		}
		c.Signal()
	}
	e.Go("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			signal(ca)
			cb.Wait(p)
		}
		signal(ca)
	})
	e.Go("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			signal(cb)
			ca.Wait(p)
		}
	})
	e.Run()
	if ChainLen(e) != 0 {
		t.Fatalf("%d procs still on the chain after Run", ChainLen(e))
	}
	return Switches(e), handoffs
}

// TestChainCondHandoffOneSwitch: two procs ping-ponging through a Cond
// take exactly one coroutine switch per handoff. The blocking proc
// switches straight into the other, which yields straight back when it
// blocks, with no trip through Run in between.
func TestChainCondHandoffOneSwitch(t *testing.T) {
	s1, h1 := pingPong(t, 100)
	s2, h2 := pingPong(t, 300)
	if h2-h1 != 400 {
		t.Fatalf("200 extra round trips made %d extra handoffs, want 400", h2-h1)
	}
	if s2-s1 != h2-h1 {
		t.Errorf("%d extra handoffs took %d extra switches, want one each", h2-h1, s2-s1)
	}
}

// TestChainRingSwitchBound: a ring of 10⁴ procs, each woken by its
// predecessor, grows the chain to its full length every round and
// unwinds it when the token comes back to the first proc. No depth cap
// is needed: switches never exceed two per wakeup, as when every
// wakeup went through Run.
func TestChainRingSwitchBound(t *testing.T) {
	const n, rounds = 10_000, 3
	e := NewEngine(1)
	defer e.Shutdown()
	conds := make([]*Cond, n)
	for i := range conds {
		conds[i] = NewCond(e)
	}
	wakeups := uint64(n) // one start each
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Go(fmt.Sprintf("r%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				conds[i].Wait(p)
				if i < 3 || i == n-1 {
					order = append(order, i)
				}
				next := conds[(i+1)%n]
				if next.Waiting() > 0 {
					wakeups++
				}
				next.Signal()
			}
		})
	}
	e.At(0, func() { wakeups++; conds[0].Signal() })
	e.Run()
	if ChainLen(e) != 0 {
		t.Fatalf("%d procs still on the chain after Run", ChainLen(e))
	}
	if got, want := fmt.Sprint(order), strings.Repeat(fmt.Sprintf("0 1 2 %d ", n-1), rounds); got != "["+strings.TrimSpace(want)+"]" {
		t.Fatalf("ring order %s, want [%s]", got, strings.TrimSpace(want))
	}
	if sw := Switches(e); sw > 2*wakeups {
		t.Errorf("%d switches for %d wakeups, want at most two per wakeup", sw, wakeups)
	}
}

// TestChainRandomProgramSwitchBound: a seeded program of procs that
// wait, signal, broadcast, hand a Resource over, sleep through the
// queue, spawn, and are prodded by plain callbacks. Run in horizon
// slices, the chain is empty every time Run returns, and the switches
// never exceed two per wakeup.
func TestChainRandomProgramSwitchBound(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e := NewEngine(seed)
		r := rand.New(rand.NewSource(seed))
		cond := NewCond(e)
		bus := NewResource(e, "bus")
		var wakeups uint64
		signal := func() {
			if cond.Waiting() > 0 {
				wakeups++
			}
			cond.Signal()
		}
		broadcast := func() {
			wakeups += uint64(cond.Waiting())
			cond.Broadcast()
		}
		sleep := func(p *Proc, d time.Duration) {
			// Through the queue, never run ahead, so each is a wakeup.
			wakeups++
			e.wake(e.Now().Add(d), p)
			p.block()
		}
		spawned := 0
		var spawn func()
		spawn = func() {
			spawned++
			wakeups++
			e.Go(fmt.Sprintf("p%d", spawned), func(p *Proc) {
				for k := 0; k < 40; k++ {
					switch r.Intn(7) {
					case 0:
						sleep(p, time.Duration(r.Intn(3)))
					case 1:
						if cond.Waiting() < 4 {
							cond.Wait(p)
						}
					case 2:
						signal()
					case 3:
						broadcast()
					case 4:
						bus.Acquire(p)
						sleep(p, time.Duration(1+r.Intn(2)))
						if bus.QueueLen() > 0 {
							wakeups++
						}
						bus.Release()
					case 5:
						if spawned < 60 {
							spawn()
						}
					case 6:
						e.At(e.Now()+Time(r.Intn(2)), signal)
					}
				}
			})
		}
		for i := 0; i < 6; i++ {
			spawn()
		}
		var tick func()
		tick = func() {
			broadcast()
			if e.Now() < 400 {
				e.At(e.Now()+5, tick)
			}
		}
		e.At(0, tick)
		for h := Time(0); e.Pending() > 0; h += 7 {
			e.RunUntil(h)
			if n := ChainLen(e); n != 0 {
				t.Fatalf("seed %d: %d procs on the chain after RunUntil(%d)", seed, n, h)
			}
		}
		if sw := Switches(e); sw > 2*wakeups || sw == 0 {
			t.Errorf("seed %d: %d switches for %d wakeups, want at most two per wakeup", seed, sw, wakeups)
		}
		e.Shutdown()
	}
}

// TestChainPanicForwarded: a panic raised while the chain is three
// procs deep, by a plain callback running on the top proc's coroutine
// or by the top proc's own body, leaves Run with the original value.
// No proc on the chain is unwound and none runs its deferred calls; a
// second Run resumes them in canonical order.
func TestChainPanicForwarded(t *testing.T) {
	for _, inBody := range []bool{false, true} {
		e := NewEngine(1)
		boom := &struct{ msg string }{"boom"}
		cond := NewCond(e)
		var log []string
		deferred := map[string]int{}
		logf := func(f string, a ...any) { log = append(log, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(f, a...)) }
		// a and b sleep, each spawning the next first, so the chain
		// is Run → a → b → c when c blocks or panics.
		proc := func(name string, body func(p *Proc)) {
			e.Go(name, func(p *Proc) {
				defer func() { deferred[name]++ }()
				body(p)
			})
		}
		var spawnC func()
		proc("a", func(p *Proc) {
			proc("b", func(p *Proc) {
				spawnC()
				p.Sleep(2)
				logf("b woke")
			})
			p.Sleep(1)
			logf("a woke")
			cond.Signal()
		})
		spawnC = func() {
			proc("c", func(p *Proc) {
				if inBody {
					panic(boom)
				}
				e.At(e.Now(), func() {
					if n := ChainLen(e); n != 3 {
						t.Errorf("callback ran with %d procs on the chain, want 3", n)
					}
					panic(boom)
				})
				cond.Wait(p)
				logf("c woke")
			})
		}
		got := runRecovering(e.Run)
		if got != boom {
			t.Fatalf("inBody %v: Run raised %v, want the original value", inBody, got)
		}
		if ChainLen(e) != 0 {
			t.Fatalf("inBody %v: %d procs on the chain after the panic", inBody, ChainLen(e))
		}
		if deferred["a"]+deferred["b"] != 0 || (!inBody && deferred["c"] != 0) {
			t.Fatalf("inBody %v: deferred calls ran on the chain: %v", inBody, deferred)
		}
		if v := runRecovering(e.Run); v != nil {
			t.Fatalf("inBody %v: second Run panicked: %v", inBody, v)
		}
		want := "[1 a woke 1 c woke 2 b woke]"
		if inBody {
			want = "[1 a woke 2 b woke]"
		}
		if fmt.Sprint(log) != want {
			t.Errorf("inBody %v: second Run logged %v, want %s", inBody, log, want)
		}
		if deferred["a"] != 1 || deferred["b"] != 1 || deferred["c"] != 1 {
			t.Errorf("inBody %v: deferred calls ran %v times, want once each", inBody, deferred)
		}
		e.Shutdown()
	}
}

// deepChain spawns procs that each spawn the next and then sleep until
// their own wake time, so every spawn switches from the blocked parent
// straight into the child and the chain reaches depth procs. It returns
// the wake log.
func deepChain(e *Engine, depth int, wake func(i int) Time, body func(p *Proc, i int)) *[]string {
	log := new([]string)
	var spawn func(i int)
	spawn = func(i int) {
		e.Go(fmt.Sprintf("d%d", i), func(p *Proc) {
			if i+1 < depth {
				spawn(i + 1)
			}
			if body != nil {
				body(p, i)
			}
			p.SleepUntil(wake(i))
			*log = append(*log, fmt.Sprintf("%d d%d", e.Now(), i))
		})
	}
	spawn(0)
	return log
}

// TestChainStopDeepInChain: Stop called by the deepest proc of a
// 50-proc chain returns Run at that proc's event, with the clock and
// the event count it had, and a later Run carries on.
func TestChainStopDeepInChain(t *testing.T) {
	const depth = 50
	e := NewEngine(1)
	defer e.Shutdown()
	var chain int
	log := deepChain(e, depth, func(i int) Time { return Time(100 - i) }, func(p *Proc, i int) {
		if i == depth-1 {
			chain = ChainLen(e)
			p.Engine().Stop()
		}
	})
	if end := e.Run(); end != 0 || e.Events() != depth {
		t.Fatalf("Run after Stop returned at %v after %d events, want 0 after %d", end, e.Events(), depth)
	}
	if chain != depth || ChainLen(e) != 0 {
		t.Fatalf("chain %d deep at Stop and %d after Run, want %d and 0", chain, ChainLen(e), depth)
	}
	if len(*log) != 0 {
		t.Fatalf("procs woke before the stopped Run returned: %v", *log)
	}
	e.Run()
	if len(*log) != depth || (*log)[0] != "51 d49" || (*log)[depth-1] != "100 d0" {
		t.Errorf("wake log %v, want d49 at 51 first and d0 at 100 last", *log)
	}
}

// TestChainHorizonDeepInChain: a RunUntil horizon reached while the
// chain is 50 procs deep returns at the last event inside it, advances
// the clock to the horizon, and leaves later wakeups queued.
func TestChainHorizonDeepInChain(t *testing.T) {
	const depth = 50
	e := NewEngine(1)
	defer e.Shutdown()
	log := deepChain(e, depth, func(i int) Time { return Time(10 * (depth - i)) }, nil)
	if got := e.RunUntil(35); got != 35 {
		t.Fatalf("RunUntil(35) returned %v, want 35", got)
	}
	if ChainLen(e) != 0 {
		t.Fatalf("%d procs on the chain after RunUntil", ChainLen(e))
	}
	// The starts, then d49 at 10, d48 at 20 and d47 at 30.
	if e.Events() != depth+3 || fmt.Sprint(*log) != "[10 d49 20 d48 30 d47]" {
		t.Fatalf("after RunUntil(35): %d events, log %v; want %d and [10 d49 20 d48 30 d47]", e.Events(), *log, depth+3)
	}
	if e.Pending() != depth-3 {
		t.Fatalf("%d wakeups queued past the horizon, want %d", e.Pending(), depth-3)
	}
	e.Run()
	if len(*log) != depth || e.Now() != 10*depth {
		t.Errorf("after Run: %d wakes, clock %v; want %d at %d", len(*log), e.Now(), depth, 10*depth)
	}
}

// TestChainShutdownKillsOnce: procs left blocked after a chained run
// are each killed once by Shutdown, and the engine holds no coroutine
// afterwards.
func TestChainShutdownKillsOnce(t *testing.T) {
	e := NewEngine(1)
	cond := NewCond(e)
	killed := map[string]int{}
	const depth = 20
	var spawn func(i int)
	spawn = func(i int) {
		name := fmt.Sprintf("s%d", i)
		e.Go(name, func(p *Proc) {
			defer func() { killed[name]++ }()
			if i+1 < depth {
				spawn(i + 1)
			}
			cond.Wait(p)
		})
	}
	spawn(0)
	e.Run()
	if cond.Waiting() != depth || ChainLen(e) != 0 {
		t.Fatalf("%d waiting and %d on the chain after Run, want %d and 0", cond.Waiting(), ChainLen(e), depth)
	}
	if Switches(e) != 2*depth {
		t.Fatalf("%d switches for %d spawns, want two each", Switches(e), depth)
	}
	e.Shutdown()
	if len(killed) != depth {
		t.Fatalf("Shutdown killed %d procs, want %d", len(killed), depth)
	}
	for name, n := range killed {
		if n != 1 {
			t.Errorf("%s killed %d times, want once", name, n)
		}
	}
	if ProcCount(e) != 0 {
		t.Errorf("%d proc coroutines after Shutdown, want 0", ProcCount(e))
	}
}
