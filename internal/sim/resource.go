package sim

import "time"

// Resource models a resource that at most one activity may hold at a
// time, with FIFO arbitration — a bus, a memory port, a DMA engine.
// It also accumulates busy time so utilization can be reported.
type Resource struct {
	eng       *Engine
	name      string
	holder    *Proc // nil when free
	held      bool
	queue     []*Proc
	busySince Time
	busyTotal time.Duration
}

// NewResource returns a free resource bound to engine e.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{eng: e, name: name}
}

// Acquire blocks p until it holds the resource. Waiters are served in
// FIFO order.
func (r *Resource) Acquire(p *Proc) {
	if r.held {
		r.queue = append(r.queue, p)
		p.block()
		// Our predecessor's Release transferred ownership to us before
		// resuming us, so the resource is already ours here.
		return
	}
	r.held = true
	r.holder = p
	r.busySince = r.eng.now
}

// Release frees the resource or hands it to the longest waiter.
func (r *Resource) Release() {
	if !r.held {
		panic("sim: Release of free resource " + r.name)
	}
	r.busyTotal += time.Duration(r.eng.now - r.busySince)
	if len(r.queue) == 0 {
		r.held = false
		r.holder = nil
		return
	}
	next := r.queue[0]
	copy(r.queue, r.queue[1:])
	r.queue = r.queue[:len(r.queue)-1]
	r.holder = next
	r.busySince = r.eng.now
	r.eng.wake(r.eng.now, next)
}

// Use acquires the resource, holds it for d of virtual time, and
// releases it. This is the common pattern for a priced bus transaction.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Held reports whether the resource is currently held.
func (r *Resource) Held() bool { return r.held }

// QueueLen reports the number of procs waiting for the resource.
func (r *Resource) QueueLen() int { return len(r.queue) }

// BusyTime returns the total virtual time the resource has been held.
// If the resource is currently held the in-progress hold is included.
func (r *Resource) BusyTime() time.Duration {
	total := r.busyTotal
	if r.held {
		total += time.Duration(r.eng.now - r.busySince)
	}
	return total
}

// ResetStats zeroes the accumulated busy time (the current hold, if any,
// is accounted from now).
func (r *Resource) ResetStats() {
	r.busyTotal = 0
	r.busySince = r.eng.now
}
