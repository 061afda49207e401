// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, insertion sequence). Sequential activities — the OSIRIS board's
// on-board processors, host interrupt handlers, driver threads — run as
// Procs: coroutines (iter.Pull) that execute in strict handoff, so at
// most one of them runs at any instant and every run of a simulation
// is bit-for-bit reproducible. A proc that blocks does not hand control
// back to Run: it runs the event loop on its own coroutine and switches
// straight to the next proc to run, so a handoff between two procs
// costs one coroutine switch, not two. Procs are pooled per
// engine: a finished proc's coroutine runs the next spawned body, so a
// spawn per interrupt starts no goroutine and the engine holds no more
// coroutines than were ever alive at once.
//
// A proc sleep whose wakeup would be the very next event executed runs
// ahead: the clock moves to the wakeup and the proc continues without a
// queue entry or a coroutine switch.
//
// The event queue is allocation-free in steady state: fired and
// cancelled events return their storage to an engine-owned free list,
// and the closure-free scheduling forms (AtCall, AfterCall) let hot
// paths schedule without materializing a closure per event. Stale
// handles to recycled events are detected with a generation counter, so
// cancelling an event that already fired is always safe.
//
// Virtual time is measured in integer nanoseconds (type Time); durations
// use the standard time.Duration, which has the same resolution.
package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Microseconds returns t expressed in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return time.Duration(t).String() }

// eventNode is the engine-owned storage behind an Event handle. Nodes
// are pooled: when an event fires or is cancelled, its node goes back
// on the engine's free list with the generation counter bumped, so
// operations through a stale handle are detected and ignored.
type eventNode struct {
	at Time
	// schedAt is the virtual instant the event was scheduled at, and xid
	// identifies the scheduling source: 0 for events scheduled through
	// At/AtCall/wake, a stable channel id (Engine.NextXID) for events
	// stamped with InjectStamped — link deliveries, on one engine or
	// across shards. Together with seq they form the canonical execution
	// order (at, schedAt, xid, seq). Among xid-0 events seq is assigned
	// in scheduling order and schedAt is nondecreasing in it, so they
	// keep the historical (at, seq) order.
	schedAt      Time
	xid          uint64
	seq          uint64
	cb           func(any)
	arg          any
	proc         *Proc  // non-nil for a proc wakeup (cb is then nil)
	index        int    // heap index, -1 while off the heap
	gen          uint64 // bumped on every recycle; live handles match it
	cancelledGen uint64 // generation of the most recent cancellation
	free         *eventNode
}

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so the caller may cancel it. The zero Event is valid and
// refers to nothing (Cancel on it is a no-op). Handles stay safe after
// the event fires: the underlying storage is recycled, and a stale
// handle is recognized by its generation and ignored.
type Event struct {
	n   *eventNode
	gen uint64
}

// IsZero reports whether the handle was never assigned a scheduled
// event.
func (ev Event) IsZero() bool { return ev.n == nil }

// Pending reports whether the event is still scheduled: it has neither
// fired nor been cancelled.
func (ev Event) Pending() bool { return ev.n != nil && ev.n.gen == ev.gen }

// Cancelled reports whether Cancel was called on this event before it
// fired. The answer is reliable until the engine reuses the event's
// storage for a later scheduling that is also cancelled; code that
// needs a durable record of a cancellation should keep its own flag.
func (ev Event) Cancelled() bool { return ev.n != nil && ev.n.cancelledGen == ev.gen }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct one with NewEngine.
type Engine struct {
	now      Time
	seed     int64
	seq      uint64
	pq       []*eventNode
	freeList *eventNode
	procs    []*Proc // every proc coroutine, live or idle
	idle     []*Proc // finished procs parked for reuse by Go
	rng      *rand.Rand
	fired    uint64
	stopped  bool
	limit    Time // horizon of the current Run; maxTime means none
	recorder func(TraceEvent)
	running  bool
	// panicVal holds a panic raised on a proc's coroutine (by a callback
	// that ran there, or by a body) while the resume chain carries it
	// down to Run, which re-raises it.
	panicVal any
	pushes   uint64 // switches into a proc, each paired with one yield back
	// shard/group identify the engine's place in a ShardGroup (zero /
	// nil for a standalone engine).
	shard int
	group *ShardGroup
	// nextXID numbers a standalone engine's channels (NextXID); a shard
	// uses its group's counter instead.
	nextXID uint64
}

// NewEngine returns an engine with its virtual clock at zero and its
// pseudo-random source seeded with seed (simulation components that need
// randomness must draw from Engine.Rand for runs to be reproducible).
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed)), limit: maxTime}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic pseudo-random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Seed returns the seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// DeriveRand returns an independent deterministic pseudo-random source
// keyed by the engine seed and a site name. Components that draw
// randomness out-of-band from the main simulation (fault injectors,
// jittered timers) must each use their own derived source: the streams
// never perturb each other or Engine.Rand, so adding or removing one
// injection site leaves every other site's draws — and therefore the
// rest of the simulation — bit-for-bit unchanged.
func (e *Engine) DeriveRand(site string) *rand.Rand {
	if e.group != nil {
		e.group.registerSite(site, e.shard)
	}
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.seed))
	h.Write(b[:])
	h.Write([]byte(site))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// NextXID hands out the next channel id (1, 2, 3, …) for events
// scheduled with InjectStamped. A shard draws from its group's counter,
// so ids follow topology-construction order across the whole group and
// a channel gets the same id whichever shard builds it.
func (e *Engine) NextXID() uint64 {
	if e.group != nil {
		return e.group.NextXID()
	}
	e.nextXID++
	return e.nextXID
}

// TraceEvent is one typed trace record, the simulator's single trace
// stream: the text (-tracecats) and Chrome/Perfetto renderers both
// read it. The Ph byte follows the Chrome trace-event phase
// convention so records export losslessly to a Perfetto-loadable
// timeline: 'i' instant, 'X' complete span (At is the span start, Dur
// its length), 'C' counter sample (Arg is the counter value). Comp
// names the emitting component and becomes a timeline track (it
// carries the host, e.g. "A-rx" or "B-ch0"); Name is the event (or
// counter) name; Cat is a coarse category for filtering
// (cell/pdu/irq/drop/proto/drv/q). VCI is the virtual circuit the
// record concerns (0 when none) and Arg its one other value.
//
// The struct is plain data passed by value: emitting one performs no
// allocation, and recording is entirely passive — no engine state is
// read or written beyond the recorder callback, so enabling it cannot
// perturb the simulation.
type TraceEvent struct {
	At   Time
	Dur  Time
	Ph   byte
	VCI  uint32 // packs beside Ph: the record stays 80 bytes
	Comp string
	Cat  string
	Name string
	Arg  int64
}

// SetRecorder installs a typed-trace callback invoked by Emit. A nil
// recorder disables typed tracing.
func (e *Engine) SetRecorder(fn func(TraceEvent)) { e.recorder = fn }

// Recording reports whether a typed-trace recorder is installed — hot
// paths branch on it so disabled tracing costs one predictable branch
// and zero allocations.
func (e *Engine) Recording() bool { return e.recorder != nil }

// Emit hands a typed trace record to the recorder, if any. Callers
// stamp At themselves (usually e.Now(); span emitters backdate At to
// the span start).
func (e *Engine) Emit(ev TraceEvent) {
	if e.recorder != nil {
		e.recorder(ev)
	}
}

// less orders the heap by the canonical key (at, schedAt, xid, seq):
// fire time first, then scheduling time, then scheduling source, then
// per-source insertion order. Among locally scheduled events (xid 0)
// this is exactly the historical (at, seq) order; stamped events
// tie-break by channel id, which does not depend on the partition.
func (e *Engine) less(i, j int) bool {
	a, b := e.pq[i], e.pq[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.xid != b.xid {
		return a.xid < b.xid
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	e.pq[i], e.pq[j] = e.pq[j], e.pq[i]
	e.pq[i].index = i
	e.pq[j].index = j
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(e.pq) {
			return
		}
		m := l
		if r := l + 1; r < len(e.pq) && e.less(r, l) {
			m = r
		}
		if !e.less(m, i) {
			return
		}
		e.swap(i, m)
		i = m
	}
}

func (e *Engine) heapPush(n *eventNode) {
	n.index = len(e.pq)
	e.pq = append(e.pq, n)
	e.siftUp(n.index)
}

// heapRemove detaches the node at heap index i, restoring heap order.
func (e *Engine) heapRemove(i int) *eventNode {
	n := e.pq[i]
	last := len(e.pq) - 1
	if i != last {
		e.swap(i, last)
	}
	e.pq[last] = nil
	e.pq = e.pq[:last]
	if i != last {
		e.siftDown(i)
		e.siftUp(i)
	}
	n.index = -1
	return n
}

// recycle retires a node (fired or cancelled) to the free list. The
// generation bump invalidates every outstanding handle to it.
func (e *Engine) recycle(n *eventNode) {
	n.gen++
	n.cb = nil
	n.arg = nil
	n.proc = nil
	n.free = e.freeList
	e.freeList = n
}

// newNode takes a node off the free list (or allocates one).
func (e *Engine) newNode() *eventNode {
	n := e.freeList
	if n != nil {
		e.freeList = n.free
		n.free = nil
	} else {
		n = &eventNode{gen: 1}
	}
	return n
}

// schedule is the common path behind At/After/AtCall/AfterCall.
func (e *Engine) schedule(t Time, cb func(any), arg any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, e.now))
	}
	n := e.newNode()
	e.seq++
	n.at = t
	n.schedAt = e.now
	n.xid = 0
	n.seq = e.seq
	n.cb = cb
	n.arg = arg
	e.heapPush(n)
	return Event{n: n, gen: n.gen}
}

// wake schedules proc p to resume at instant t. It is the one proc
// wakeup: Go, SleepUntil, Cond and Resource all schedule through it.
func (e *Engine) wake(t Time, p *Proc) {
	e.schedule(t, nil, nil).n.proc = p
}

// InjectStamped schedules cb(arg) at instant t carrying an explicit
// canonical-order stamp (schedAt, xid, seq) instead of this engine's
// own scheduling stamp. It is the link delivery primitive: the sender
// computes the stamp and the receiving engine — the same one, or
// another shard at a barrier — queues the event in exactly that
// position. xid must be a non-zero, topology-stable channel id from
// NextXID (0 is reserved for locally scheduled events); seq need only
// be monotone per xid. The engine's own seq counter is not consumed, so
// injection leaves local stamps untouched.
//
// Call it only from the receiving engine's own event context, or while
// the engine is not running (the shard barrier).
func (e *Engine) InjectStamped(t, schedAt Time, xid, seq uint64, cb func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: injecting event at %v, before now %v", t, e.now))
	}
	if xid == 0 {
		panic("sim: InjectStamped needs a non-zero xid")
	}
	n := e.newNode()
	n.at = t
	n.schedAt = schedAt
	n.xid = xid
	n.seq = seq
	n.cb = cb
	n.arg = arg
	e.heapPush(n)
}

// NextEventTime reports the fire time of the earliest queued event.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

// callFunc adapts the closure scheduling forms to the callback+argument
// representation. Boxing a func value into any stores a pointer, so the
// adapter itself never allocates.
func callFunc(a any) { a.(func())() }

// At schedules fn to run at instant t, which must not be in the virtual
// past. It returns the event so the caller may cancel it.
func (e *Engine) At(t Time, fn func()) Event { return e.schedule(t, callFunc, fn) }

// AtCall schedules cb(arg) to run at instant t. It is the closure-free
// form of At for hot paths: with a pointer-shaped arg (or one already on
// the heap) the call allocates nothing, where At would force each call
// site to materialize a capturing closure per event.
func (e *Engine) AtCall(t Time, cb func(any), arg any) Event { return e.schedule(t, cb, arg) }

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.schedule(e.now.Add(d), callFunc, fn)
}

// AfterCall schedules cb(arg) to run d after the current virtual time —
// the closure-free form of After.
func (e *Engine) AfterCall(d time.Duration, cb func(any), arg any) Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.schedule(e.now.Add(d), cb, arg)
}

// Cancel removes a pending event from the queue. Cancelling an event
// that already fired or was already cancelled — or the zero Event — is
// a no-op, even if the event's storage has since been reused.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.index < 0 {
		return
	}
	e.heapRemove(n.index)
	n.cancelledGen = n.gen
	e.recycle(n)
}

// Stop makes Run return after the currently executing event completes.
// Calling Stop while the engine is not running is honored by the next
// Run, which consumes the stop and returns before executing any event;
// events stay queued for the Run after that.
func (e *Engine) Stop() { e.stopped = true }

// aheadOK reports that a wakeup scheduled now for instant t ≥ now would
// be the very next event Run executes: Run is active with no stop
// pending, t is within its horizon, and nothing is queued at or before
// t. The test is strict: at equal times an injected event (xid > 0)
// sorts after a local wakeup, but one scheduled earlier sorts before
// it, so a tie is never safe to skip. A sleep may then advance the
// clock to t and carry on without going through the queue or the
// coroutine switch; skipping the round-trip is unobservable in
// simulated behaviour.
func (e *Engine) aheadOK(t Time) bool {
	return e.running && !e.stopped && t <= e.limit &&
		(len(e.pq) == 0 || e.pq[0].at > t)
}

// Run executes events in order until the queue is empty, Stop is called,
// or the time limit set by RunUntil-style callers is reached. It returns
// the virtual time at which the simulation went quiescent.
//
// Procs that remain blocked on conditions when the queue drains do not
// keep the simulation alive: with no pending events nothing can ever wake
// them, so the run is quiescent.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.dispatch(nil)
	if v := e.panicVal; v != nil {
		e.panicVal = nil
		panic(v)
	}
	e.stopped = false
	return e.now
}

// dispatch is the event loop. Run calls it with self nil. A proc that
// blocks while Run is active calls it with itself, on its own
// coroutine, and the loop returns once that proc's wakeup fires. So a
// blocked proc switches straight to the next proc to run instead of
// yielding to Run first.
//
// The procs switched to form the resume chain: Run's loop switches to a
// proc, which blocks and switches to the next, and so on; each is
// linked until it yields back to the dispatcher that switched to it.
// A popped wakeup for an unlinked proc switches to it, and one for the
// dispatching proc itself returns. A wakeup for a linked proc further
// down the chain stays queued while the dispatcher yields to its parent,
// whose loop carries on with the same queue; so each switch into a proc
// is paired with exactly one yield back and the chain needs no depth
// cap. A plain callback runs on whichever coroutine pops it.
//
// Every level stops on the same conditions, so a stop, the horizon, an
// empty queue or a forwarded panic unwinds the whole chain to Run.
func (e *Engine) dispatch(self *Proc) {
	for e.panicVal == nil && !e.stopped && len(e.pq) > 0 {
		n := e.pq[0]
		if n.at > e.limit {
			// Past the horizon: leave it queued and stop.
			break
		}
		if n.at < e.now {
			panic("sim: event queue went backwards")
		}
		p := n.proc
		if p != nil && p.linked && p != self {
			break
		}
		e.heapRemove(0)
		e.now = n.at
		e.fired++
		cb, arg := n.cb, n.arg
		// Recycle before the callback so it can reuse the node for
		// whatever it schedules; the generation bump makes a self-Cancel
		// from inside the callback a no-op.
		e.recycle(n)
		switch {
		case p == nil && self == nil:
			cb(arg)
		case p == nil:
			e.callOn(cb, arg)
		case p == self:
			return
		default:
			e.push(p)
		}
	}
	if self != nil {
		self.yieldToParent()
	}
}

// callOn runs a callback on a proc's coroutine. A panic must not unwind
// that proc, so it is stashed for the chain to carry down to Run.
func (e *Engine) callOn(cb func(any), arg any) {
	defer func() {
		if r := recover(); r != nil {
			e.panicVal = r
		}
	}()
	cb(arg)
}

// RunFor runs the simulation until the virtual clock would pass now+d;
// events scheduled later stay queued. It returns the time reached.
func (e *Engine) RunFor(d time.Duration) Time {
	return e.RunUntil(e.now.Add(d))
}

// RunUntil runs the simulation until the virtual clock would pass t;
// events scheduled after t remain queued and the clock is advanced to t.
// If Stop ended the run with events at or before t still queued, the
// clock stays at the last executed event so a later Run can fire them.
func (e *Engine) RunUntil(t Time) Time {
	e.runTo(t)
	if next, ok := e.NextEventTime(); !ok || next > t {
		e.advanceTo(t)
	}
	return e.now
}

// runTo executes events with at ≤ t but, unlike RunUntil, leaves the
// clock at the last executed event rather than advancing it to t. The
// shard scheduler uses it for lookahead windows: an idle shard's clock
// must not jump to the window edge, or a later-injected event could
// land in its apparent past.
func (e *Engine) runTo(t Time) {
	prev := e.limit
	e.limit = t
	e.Run()
	e.limit = prev
}

// advanceTo moves an idle engine's clock forward to t (a no-op if the
// clock is already past t). The shard scheduler applies the RunUntil
// clock-advance contract group-wide with it once all windows are done.
func (e *Engine) advanceTo(t Time) {
	if e.running {
		panic("sim: advanceTo during Run")
	}
	if e.now < t {
		e.now = t
	}
}

// Pending reports the number of events in the queue.
func (e *Engine) Pending() int { return len(e.pq) }

// Events returns the cumulative number of events the engine has
// executed across all Run calls — the denominator for wall-clock
// events/sec measurements.
func (e *Engine) Events() uint64 { return e.fired }

// Shutdown stops every proc coroutine, idle ones included. Call it when
// done with an engine: until then its coroutines stay parked and keep
// the engine reachable. A blocked proc unwinds with a kill panic that
// runs its deferred calls; a proc whose start event never fired does not
// run its body at all. The engine must not be running. After Shutdown
// the engine can still schedule plain events but all procs are gone. It
// is safe to call multiple times.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown during Run")
	}
	for _, p := range e.procs {
		p.stop()
		p.state = procDone
	}
	e.procs = nil
	e.idle = nil
}
