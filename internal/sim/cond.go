package sim

// Cond is a condition variable for simulated processes. It follows the
// monitor discipline: a waiter re-checks its predicate in a loop because
// Signal only makes it runnable, it does not convey which condition
// became true.
//
// Wakeups are delivered through the event queue at the current virtual
// time, preserving determinism: if several procs are signalled at the
// same instant they run in signal order.
type Cond struct {
	eng     *Engine
	waiters []*Proc
}

// NewCond returns a condition variable bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait suspends p until another activity calls Signal or Broadcast.
// Waiting consumes no virtual time beyond the wakeup scheduling point.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.block()
}

// Signal wakes the longest-waiting proc, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.eng.wake(c.eng.now, p)
}

// Broadcast wakes all waiting procs in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.eng.wake(c.eng.now, p)
	}
	c.waiters = c.waiters[:0]
}

// Waiting reports the number of procs currently blocked on c.
func (c *Cond) Waiting() int { return len(c.waiters) }
