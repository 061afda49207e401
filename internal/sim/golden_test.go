package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// procProgram runs a seeded, randomized program of procs and returns
// its step log, one "virtual-time name step" line per step. Procs are
// spawned from procs and from events; they sleep (zero-length
// included), wait on and signal a Cond, hand a Resource over, block on
// a full or empty Chan, and now and then panic. A ticker event keeps
// waiters moving for a while and then stops, so the procs still
// blocked at the end are killed by Shutdown; their unwinding is logged
// in name order, since kill order is not part of the contract.
//
// Every random draw happens in simulated execution order, so the log
// is a pure function of the seed: any change to which proc runs when,
// or to which body a wakeup resumes, changes it. With inGroup the
// program runs on the engine of a 1-shard ShardGroup, driven through
// the group's Run and Shutdown.
func procProgram(seed int64, inGroup bool) []string {
	e := NewEngine(seed)
	run, shutdown := e.Run, e.Shutdown
	if inGroup {
		g := NewShardGroup(seed, 1)
		e, run, shutdown = g.Engine(0), g.Run, g.Shutdown
	}
	r := rand.New(rand.NewSource(seed))
	cond := NewCond(e)
	bus := NewResource(e, "bus")
	ch := NewChan[int](e, 2)
	var log, unwound []string
	shuttingDown := false
	logf := func(who, format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s ", e.Now(), who)+fmt.Sprintf(format, args...))
	}

	spawned := 0
	var spawn func(depth int)
	body := func(depth, steps, panicAt int) func(p *Proc) {
		return func(p *Proc) {
			defer func() {
				if shuttingDown {
					unwound = append(unwound, p.Name())
					return
				}
				logf(p.Name(), "unwind")
			}()
			for i := 0; i < steps; i++ {
				if i == panicAt {
					logf(p.Name(), "panic")
					panic("boom " + p.Name())
				}
				switch r.Intn(10) {
				case 0:
					d := time.Duration(r.Intn(3))
					logf(p.Name(), "sleep %v", d)
					p.Sleep(d)
				case 1:
					t := e.Now() + Time(r.Intn(5)-2)
					logf(p.Name(), "until %d", t)
					p.SleepUntil(t)
				case 2:
					logf(p.Name(), "wait")
					cond.Wait(p)
				case 3:
					logf(p.Name(), "signal")
					cond.Signal()
				case 4:
					logf(p.Name(), "broadcast")
					cond.Broadcast()
				case 5:
					logf(p.Name(), "acquire")
					bus.Acquire(p)
					logf(p.Name(), "held")
					p.Sleep(time.Duration(r.Intn(3)))
					bus.Release()
				case 6:
					v := r.Intn(100)
					logf(p.Name(), "send %d", v)
					ch.Send(p, v)
				case 7:
					logf(p.Name(), "recv")
					logf(p.Name(), "got %d", ch.Recv(p))
				case 8:
					if depth < 5 {
						logf(p.Name(), "spawn")
						spawn(depth + 1)
					}
				case 9:
					if depth < 5 {
						logf(p.Name(), "spawn-later")
						e.At(e.Now()+Time(r.Intn(3)), func() { spawn(depth + 1) })
					}
				}
				logf(p.Name(), "step %d", i)
			}
			logf(p.Name(), "exit")
		}
	}
	spawn = func(depth int) {
		spawned++
		steps := 1 + r.Intn(8)
		panicAt := -1
		if spawned%9 == 3 || r.Intn(30) == 0 {
			panicAt = r.Intn(steps)
		}
		e.Go(fmt.Sprintf("p%d", spawned), body(depth, steps, panicAt))
	}

	var tick func(n int)
	tick = func(n int) {
		logf("ticker", "tick %d", n)
		if n < 270 {
			cond.Broadcast()
		}
		if n%2 == 0 {
			if v, ok := ch.TryRecv(); ok {
				logf("ticker", "took %d", v)
			}
		} else if ch.TrySend(-n) {
			logf("ticker", "put %d", -n)
		}
		if n%10 == 0 {
			spawn(0)
		}
		if n < 300 {
			e.At(e.Now()+3, func() { tick(n + 1) })
			return
		}
		// Leave one proc blocked on each primitive for Shutdown.
		stuck := func(name string, fn func(p *Proc)) {
			e.Go(name, func(p *Proc) {
				defer func() { unwound = append(unwound, p.Name()) }()
				fn(p)
				logf(p.Name(), "not stuck")
			})
		}
		stuck("stuck-cond", func(p *Proc) { cond.Wait(p) })
		stuck("stuck-bus-holder", func(p *Proc) { bus.Acquire(p); cond.Wait(p) })
		stuck("stuck-bus", func(p *Proc) { bus.Acquire(p) })
		stuck("stuck-send", func(p *Proc) {
			for i := 0; ; i++ {
				ch.Send(p, i)
			}
		})
	}

	for i := 0; i < 6; i++ {
		spawn(0)
	}
	e.At(1, func() { tick(0) })
	for {
		v := runRecovering(run)
		if v == nil {
			break
		}
		log = append(log, fmt.Sprintf("%d run panicked: %v", e.Now(), v))
	}
	shuttingDown = true
	shutdown()
	sort.Strings(unwound)
	log = append(log, fmt.Sprintf("end %d events %d spawned %d killed %v", e.Now(), e.Events(), spawned, unwound))
	return log
}

// runRecovering calls run (an Engine's or a ShardGroup's Run) and
// returns the value of a panic that escaped it, or nil once the queue
// drains.
func runRecovering(run func() Time) (v any) {
	defer func() { v = recover() }()
	run()
	return nil
}

// TestProcProgramGolden pins the step log of procProgram for three
// seeds, on a standalone engine and on a 1-shard ShardGroup. The hashes
// were recorded with the goroutine-per-proc engine that preceded pooled
// coroutines, so they prove that reusing a finished proc for a later
// spawn never lets a stale wakeup resume the wrong body and never
// reorders a step, and that a 1-shard group is the standalone engine.
func TestProcProgramGolden(t *testing.T) {
	golden := map[int64]string{
		1: "147adc8889f14233597f41654ce03b97f70f264f0d290c7aa7e3ebaabb5dbe2c",
		2: "941cdd9a73cfc9319ef4a721272e422cea53b291f88ab9e898b13fee72b29172",
		3: "a7ec5f60558d61b4d5e9eca37b33d42fe6186a310d5ac4ac13a74e8cda26fdcc",
	}
	for seed, want := range golden {
		log := procProgram(seed, false)
		sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
		got := hex.EncodeToString(sum[:])
		if got != want {
			t.Errorf("seed %d: log hash %s, want %s (%d lines; tail %q)", seed, got, want, len(log), log[len(log)-1])
		}
		glog := procProgram(seed, true)
		gsum := sha256.Sum256([]byte(strings.Join(glog, "\n")))
		if got := hex.EncodeToString(gsum[:]); got != want {
			t.Errorf("seed %d on a 1-shard group: log hash %s, want %s (%d lines; tail %q)", seed, got, want, len(glog), glog[len(glog)-1])
		}
		for _, must := range []string{" panic", " wait", " spawn", " spawn-later", " send ", " got ", " held", " sleep 0s", "run panicked"} {
			if !strings.Contains(strings.Join(log, "\n"), must) {
				t.Errorf("seed %d: program never logged %q", seed, must)
			}
		}
	}
}
