package sim

// ProcCount reports how many proc coroutines e holds, live and idle.
func ProcCount(e *Engine) int { return len(e.procs) }

// Switches reports how many coroutine switches e has taken into and out
// of its procs during Run: two per switch into a proc, since each is
// paired with exactly one yield back.
func Switches(e *Engine) uint64 { return 2 * e.pushes }

// ChainLen reports how many procs are on e's resume chain.
func ChainLen(e *Engine) int {
	n := 0
	for _, p := range e.procs {
		if p.linked {
			n++
		}
	}
	return n
}
