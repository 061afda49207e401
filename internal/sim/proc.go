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
// (iter.Pull), and the engine enforces strict handoff: the body
// executes only while the engine has switched to it and resumes when
// the body yields (by sleeping, waiting on a Cond, or returning), so at
// most one proc runs at a time and execution order is fully determined
// by the event queue.
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
	panicVal any // non-nil if the body panicked; re-raised by resume
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
	e.AtCall(e.now, resumeProc, p)
	return p
}

// resumeProc is the closure-free wakeup callback shared by every proc
// scheduling point: Sleep, Cond signals, Resource handoff, channel
// operations. A *Proc boxed into any stores a pointer, so scheduling a
// wakeup with AtCall(t, resumeProc, p) allocates nothing.
func resumeProc(a any) { a.(*Proc).resume() }

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
// shutdown kill is stashed for resume to re-raise on the engine's
// goroutine, so the failure surfaces in the Run caller's stack.
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

// resume switches to the proc and returns when it yields or its body
// finishes. Called only from engine context (event callbacks).
func (p *Proc) resume() {
	if p.state == procDone {
		return
	}
	p.next()
	if p.panicVal != nil {
		v := p.panicVal
		p.panicVal = nil
		panic(v)
	}
}

// block yields control back to the engine and returns when the proc is
// resumed. If Shutdown stops the proc instead, block unwinds the body
// with killedError. Called only from proc context.
func (p *Proc) block() {
	p.state = procBlocked
	if !p.yield(struct{}{}) {
		panic(killedError{p.name})
	}
	p.state = procRunning
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
	e.AtCall(t, resumeProc, p)
	p.block()
}

// Done reports whether the proc body has returned (or was killed by
// Shutdown before it could). Once it has, the engine may reuse the Proc
// for a later Go, after which Done reports on that spawn.
func (p *Proc) Done() bool { return p.state == procDone }
