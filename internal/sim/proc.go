//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"time"
)

type procState int

const (
	procNew procState = iota
	procBlocked
	procRunning
	procDone
)

// killedError is the panic value used to unwind a Proc when the engine
// shuts down while the proc is blocked.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: proc " + k.name + " killed at shutdown" }

// Proc is a simulated sequential process. Its body runs on a coroutine
// (iter.Pull), and the engine enforces strict handoff: a body executes
// only after its wakeup event fires and runs until it blocks (by
// sleeping, waiting on a Cond, or acquiring a held Resource) or
// returns, so at most one proc runs at a time and execution order is
// fully determined by the event queue. A blocked proc runs the event
// loop on its own coroutine and switches straight to the next proc to
// run, rather than yielding to Run first (see Engine.dispatch).
//
// Procs are pooled per engine: when a body returns, its coroutine parks
// on the engine's idle list and a later Go runs the next body on it. A
// *Proc handle therefore refers to the spawn that returned it only
// until that body returns.
type Proc struct {
	eng      *Engine
	name     string
	fn       func(p *Proc) // body of the current spawn; nil while idle
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	state    procState
	linked   bool // on the resume chain: switched to and not yet yielded back
	panicVal any  // non-nil if the body panicked; forwarded by push
}

// Go spawns a simulated process whose body is fn. The body starts at the
// current virtual time (it is scheduled through the event queue like any
// other event). The returned Proc may be passed to blocking primitives
// only from within fn itself.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.idle); n > 0 {
		p = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		p = &Proc{eng: e}
		p.next, p.stop = iter.Pull(p.serve)
		e.procs = append(e.procs, p)
	}
	p.name, p.fn, p.state = name, fn, procNew
	e.wake(e.now, p)
	return p
}

// serve is the coroutine: it runs one body per start event and, while
// bodies return normally, parks on the engine's idle list between them.
// It returns, ending the coroutine, when a body panics or Shutdown
// stops it.
func (p *Proc) serve(yield func(struct{}) bool) {
	p.yield = yield
	for p.runBody() {
		p.eng.idle = append(p.eng.idle, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs the current body and reports whether it returned
// normally, leaving the proc fit for reuse. A panic other than the
// shutdown kill is stashed for push to forward down the resume chain,
// so Run re-raises it in its caller's stack.
func (p *Proc) runBody() (ok bool) {
	defer func() {
		p.fn = nil
		p.state = procDone
		if r := recover(); r != nil {
			if _, killed := r.(killedError); !killed {
				p.panicVal = r
			}
		}
	}()
	p.state = procRunning
	p.fn(p)
	return true
}

// Name returns the name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// push switches from the running dispatcher to p and returns when p
// yields back or its body finishes. p is linked for that span. A panic
// that ended p's body moves to the engine, to be carried down the chain.
func (e *Engine) push(p *Proc) {
	if p.state == procDone {
		return
	}
	e.pushes++
	p.linked = true
	p.next()
	p.linked = false
	if p.panicVal != nil {
		e.panicVal, p.panicVal = p.panicVal, nil
	}
}

// block suspends the proc until its wakeup fires. While Run is active
// the proc runs the event loop itself until then; otherwise (a killed
// proc's deferred code at Shutdown) it just yields. If Shutdown stops
// the proc instead, block unwinds the body with killedError. Called
// only from proc context.
func (p *Proc) block() {
	p.state = procBlocked
	if p.eng.running {
		p.eng.dispatch(p)
	} else {
		p.yieldToParent()
	}
	p.state = procRunning
}

// yieldToParent switches back to whoever switched to p and returns when
// a dispatcher pops p's wakeup and switches to it again.
func (p *Proc) yieldToParent() {
	if !p.yield(struct{}{}) {
		panic(killedError{p.name})
	}
}

// Sleep suspends the proc for d of virtual time. It is SleepUntil(now+d).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %s: negative sleep %v", p.name, d))
	}
	p.SleepUntil(p.eng.now.Add(d))
}

// SleepUntil suspends the proc until instant t. If t is not after the
// current time it is a zero-length scheduling point: any event already
// queued at the current instant runs before it returns. While the engine
// is not running (a killed proc's deferred code during Shutdown) nothing
// else can run, so a zero-length sleep returns at once.
//
// When the wakeup would be the very next event executed (Engine.aheadOK)
// the proc runs ahead: the clock moves to t and SleepUntil returns
// without an event or a coroutine switch. The simulated behaviour is
// identical either way. A run-ahead to a later instant counts the
// wakeup it skipped, in Events and in the scheduling sequence, exactly
// as the queued wakeup would have; a zero-length one counts nothing.
func (p *Proc) SleepUntil(t Time) {
	e := p.eng
	if t <= e.now {
		if !e.running || e.aheadOK(e.now) {
			return
		}
		t = e.now
	} else if e.aheadOK(t) {
		e.seq++
		e.fired++
		e.now = t
		return
	}
	e.wake(t, p)
	p.block()
}

// Done reports whether the proc body has returned (or was killed by
// Shutdown before it could). Once it has, the engine may reuse the Proc
// for a later Go, after which Done reports on that spawn.
func (p *Proc) Done() bool { return p.state == procDone }
