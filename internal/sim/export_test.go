package sim

// ProcCount reports how many proc coroutines e holds, live and idle.
func ProcCount(e *Engine) int { return len(e.procs) }
