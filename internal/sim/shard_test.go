package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestInjectStampedCanonicalOrder: events carrying explicit stamps
// merge into the queue in (at, schedAt, xid, seq) order, with locally
// scheduled events (xid 0) winning ties against injected ones.
func TestInjectStampedCanonicalOrder(t *testing.T) {
	e := NewEngine(1)
	var got []string
	rec := func(a any) { got = append(got, a.(string)) }

	const at = Time(100)
	// Local events: schedAt = 0 (scheduled now), xid = 0.
	e.AtCall(at, rec, "local-1")
	e.AtCall(at, rec, "local-2")
	// Injected: later schedAt sorts last regardless of xid; equal
	// schedAt sorts by xid, then per-channel seq.
	e.InjectStamped(at, 50, 1, 7, rec, "x1-late")
	e.InjectStamped(at, 0, 2, 1, rec, "x2-a")
	e.InjectStamped(at, 0, 1, 3, rec, "x1-b")
	e.InjectStamped(at, 0, 1, 2, rec, "x1-a")
	e.Run()

	want := []string{"local-1", "local-2", "x1-a", "x1-b", "x2-a", "x1-late"}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestInjectStampedValidation(t *testing.T) {
	e := NewEngine(1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero xid", func() { e.InjectStamped(10, 0, 0, 1, func(any) {}, nil) })
	e.At(5, func() {})
	e.Run()
	mustPanic("past injection", func() { e.InjectStamped(1, 0, 1, 1, func(any) {}, nil) })
}

// TestShardGroupWindows: two shards exchanging events through a
// barrier-flushed channel execute them in the canonical merged order,
// and the window limit never lets a shard run past an in-flight event.
func TestShardGroupWindows(t *testing.T) {
	g := NewShardGroup(1, 2)
	e0, e1 := g.Engine(0), g.Engine(1)
	const lookahead = time.Microsecond
	g.AddLookahead(lookahead)

	// A toy cross-shard channel from shard 0 to shard 1: sends buffer
	// (time, seq) pairs; the barrier injects them with delivery one
	// lookahead later.
	type xmsg struct {
		at      Time
		schedAt Time
		seq     uint64
		label   string
	}
	var out []xmsg
	var delivered []string
	xid := g.NextXID()
	g.OnBarrier(func() {
		for _, m := range out {
			m := m
			g.Inject(e1, m.at, m.schedAt, xid, m.seq, func(any) {
				if e1.Now() != m.at {
					t.Errorf("%s delivered at %v, want %v", m.label, e1.Now(), m.at)
				}
				delivered = append(delivered, m.label)
			}, nil)
		}
		out = out[:0]
	})

	var seq uint64
	send := func(label string) {
		seq++
		out = append(out, xmsg{at: e0.Now().Add(lookahead), schedAt: e0.Now(), seq: seq, label: label})
	}
	e0.At(0, func() { send("a") })
	e0.At(500, func() { send("b"); send("c") })
	e0.At(3000, func() { send("d") })
	// Local shard-1 work interleaved with the deliveries.
	e1.At(999, func() { delivered = append(delivered, "local-999") })
	e1.At(1500, func() { delivered = append(delivered, "local-1500") })

	g.Run()
	// local-1500 precedes b and c although all three fire at t=1500: it
	// was scheduled at t=0 and they at t=500, and the canonical order
	// breaks fire-time ties by scheduling time first — just as a serial
	// engine's (at, seq) order would have run them.
	want := []string{"local-999", "a", "local-1500", "b", "c", "d"}
	if len(delivered) != len(want) {
		t.Fatalf("delivered %v, want %v", delivered, want)
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("delivered %v, want %v", delivered, want)
		}
	}
	if g.Pending() != 0 {
		t.Errorf("%d events still pending after Run", g.Pending())
	}
}

// TestShardGroupRunUntil: the group honors the horizon — events beyond
// it stay queued — and advances every shard's clock to it, like
// Engine.RunUntil does.
func TestShardGroupRunUntil(t *testing.T) {
	g := NewShardGroup(1, 3)
	defer g.Shutdown()
	g.AddLookahead(time.Microsecond)
	// Per-shard counters: shards 0 and 1 may execute the same window
	// concurrently, so shared state across them is the caller's bug.
	var ran [2]int
	g.Engine(0).At(100, func() { ran[0]++ })
	g.Engine(1).At(200, func() { ran[1]++ })
	g.Engine(1).At(9000, func() { ran[1]++ })
	g.RunUntil(5000)
	if ran[0]+ran[1] != 2 {
		t.Errorf("ran %d events before the horizon, want 2", ran[0]+ran[1])
	}
	if g.Pending() != 1 {
		t.Errorf("%d events pending, want 1 (the one past the horizon)", g.Pending())
	}
	for i := 0; i < g.Size(); i++ {
		if now := g.Engine(i).Now(); now != 5000 {
			t.Errorf("shard %d clock at %v after RunUntil(5000)", i, now)
		}
	}
}

// TestLookaheadViolationPanics: an injection inside the window that
// produced it means the conservative synchronization was unsound; the
// group must fail loudly, not diverge silently.
func TestLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(1, 2)
	g.AddLookahead(time.Microsecond)
	xid := g.NextXID()
	fired := false
	g.OnBarrier(func() {
		if !fired {
			fired = true
			g.Inject(g.Engine(1), 500, 500, xid, 1, func(any) {}, nil) // inside [0, 999]
		}
	})
	g.Engine(0).At(0, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	g.Run()
}

func TestAddLookaheadValidation(t *testing.T) {
	g := NewShardGroup(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("AddLookahead(0) did not panic")
		}
	}()
	g.AddLookahead(0)
}

// TestDuplicateDeriveSitePanics: two engines of one group deriving the
// same site would silently share one pseudo-random stream — the exact
// partition-dependent coupling the site registry exists to catch.
func TestDuplicateDeriveSitePanics(t *testing.T) {
	g := NewShardGroup(1, 2)
	g.Engine(0).DeriveRand("injector/x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate DeriveRand site did not panic")
		}
	}()
	g.Engine(1).DeriveRand("injector/x")
}

// TestShardGroupProcs: procs spawned on different shards both run, and
// panics inside a shard's window surface on the coordinator's stack.
func TestShardGroupProcs(t *testing.T) {
	g := NewShardGroup(1, 2)
	defer g.Shutdown()
	g.AddLookahead(time.Microsecond)
	var ticks [2]int
	for i := 0; i < 2; i++ {
		i := i
		g.Engine(i).Go("ticker", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Sleep(time.Duration(i+1) * time.Microsecond)
				ticks[i]++
			}
		})
	}
	g.Run()
	if ticks[0] != 5 || ticks[1] != 5 {
		t.Errorf("ticks = %v, want [5 5]", ticks)
	}
}

func TestShardWindowPanicPropagates(t *testing.T) {
	g := NewShardGroup(1, 2)
	g.Engine(1).At(10, func() { panic("boom") })
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the shard's panic value", r)
		}
	}()
	g.Run()
}

// TestShardGroupNoGoroutineLeak: the persistent shard workers and every
// engine's proc goroutines exit at Shutdown (the parexp leak pattern).
func TestShardGroupNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		g := NewShardGroup(1, 4)
		g.AddLookahead(time.Microsecond)
		for s := 0; s < g.Size(); s++ {
			eng := g.Engine(s)
			eng.Go("sleeper", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		g.Run()
		g.Shutdown()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Shutdown", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSingleEngineOrderUnchanged: for a standalone engine the refined
// comparator must reproduce the historical (at, seq) order exactly —
// the Shards=1 inline path is the old engine, bit for bit.
func TestSingleEngineOrderUnchanged(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(50*(i%3)), func() { got = append(got, i) })
	}
	e.Run()
	// Same fire time ⇒ scheduling order; times 0, 50, 100 interleaved.
	want := []int{0, 3, 6, 9, 1, 4, 7, 2, 5, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestOneShardGroupRunsInline: a 1-shard group runs its engine
// directly — no windows — and keeps Engine.RunUntil's horizon and
// clock contract.
func TestOneShardGroupRunsInline(t *testing.T) {
	g := NewShardGroup(1, 1)
	defer g.Shutdown()
	e := g.Engine(0)
	var ran []Time
	for _, at := range []Time{100, 200, 9000} {
		e.At(at, func() { ran = append(ran, e.Now()) })
	}
	e.Go("sleeper", func(p *Proc) { p.Sleep(300) })
	if now := g.RunUntil(5000); now != 5000 || e.Now() != 5000 {
		t.Errorf("RunUntil(5000) returned %v with the clock at %v", now, e.Now())
	}
	if len(ran) != 2 || g.Pending() != 1 {
		t.Errorf("ran %v with %d pending, want the two events before the horizon", ran, g.Pending())
	}
	if w := g.Stats().Windows; w != 0 {
		t.Errorf("RunUntil took %d windows, want 0", w)
	}
	if now := g.Run(); now != 9000 || len(ran) != 3 {
		t.Errorf("Run returned %v after %v", now, ran)
	}
	if w := g.Stats().Windows; w != 0 {
		t.Errorf("Run took %d windows, want 0", w)
	}
}

// TestNextXID: channel ids count from 1 in construction order, per
// standalone engine, and across a group's shards from one counter.
func TestNextXID(t *testing.T) {
	e := NewEngine(1)
	if a, b := e.NextXID(), e.NextXID(); a != 1 || b != 2 {
		t.Errorf("standalone engine ids %d, %d, want 1, 2", a, b)
	}
	g := NewShardGroup(1, 2)
	defer g.Shutdown()
	got := []uint64{g.Engine(1).NextXID(), g.Engine(0).NextXID(), g.NextXID(), g.Engine(1).NextXID()}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("group ids %v, want 1, 2, 3, 4", got)
		}
	}
}
