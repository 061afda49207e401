package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one timed phase of the traced run. Spans of one repeat share
// its run id; parent is the index of the enclosing span (0 for none,
// since span ids start at 1).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Run    int                `json:"run"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced repeats pay one branch per phase.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// when returns t if on, else nil.
func (t *tracer) when(on bool) *tracer {
	if !on {
		return nil
	}
	return t
}

func (t *tracer) begin(run int, name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// annotate attaches the counts read at a span's boundary.
func (t *tracer) annotate(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Counts = counts
}

// write stores the spans, with the environment, as one JSON file.
func (t *tracer) write(dir string, env map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%v.json", env["workload"], env["seed"]))
	data, err := json.MarshalIndent(map[string]any{"env": env, "spans": t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// environment records what the numbers were measured on.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":      cfg.workload.name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"traced":        cfg.traced,
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceHash(),
	}
}

// repoRoot finds the simulator's repository root: the working directory
// or its parent, whichever holds the repro module's go.mod.
func repoRoot() (string, bool) {
	for _, root := range []string{".", ".."} {
		mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module repro\n")) {
			return root, true
		}
	}
	return "", false
}

// commit asks git for the commit the repository root has checked out.
// It is "unknown" outside a git work tree, or when the root is only a
// subdirectory of some other work tree; source_sha256 then identifies
// the source.
func commit() string {
	root, ok := repoRoot()
	if !ok {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	f := strings.Fields(string(out))
	if err != nil || len(f) != 2 {
		return "unknown"
	}
	top, err := os.Stat(f[0])
	here, err2 := os.Stat(root)
	if err != nil || err2 != nil || !os.SameFile(top, here) {
		return "unknown"
	}
	return f[1]
}

// sourceHash identifies the simulator's source whether or not a commit
// is known: a sha256 over go.mod and every Go file under internal/.
func sourceHash() string {
	root, ok := repoRoot()
	if !ok {
		return "unknown"
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		rel, _ := filepath.Rel(root, f) // f is under root by construction
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// profile folds CPU profiles of measured phases into self time per
// module of the simulator.
type profile struct {
	self  map[string]int64 // module -> sampled CPU ns
	total int64
}

func newProfile() *profile { return &profile{self: map[string]int64{}} }

// profModules are the shares reported, in order; every sample lands in
// exactly one.
var profModules = []string{
	"sim", "atm", "board", "dpm", "driver", "proto", "hostsim", "fbuf", "adc",
	"queue", "mem", "msg", "bus", "cache", "core", "xkernel",
	"runtime_sched", "runtime_gc", "runtime_other", "bench", "other",
}

// schedFrames and gcFrames classify runtime functions, matched as
// substrings: goroutine parking, handoff and scheduling versus
// allocation and collection.
var (
	schedFrames = []string{"schedule", "findRunnable", "park", "ready", "chan", "send", "recv", "select", "mcall",
		"gosched", "lock2", "futex", "note", "stopm", "startm", "wakep", "casgstatus", "runq", "netpoll", "usleep",
		"osyield", "procyield", "spinning", "gogo", "execute", "acquirep", "releasep", "handoffp", "newproc", "goexit",
		"systemstack", "sema", "nanotime", "timers", "stealWork", "guintptr", "Sudog", "dropg", "acquirem", "releasem",
		"traceAcquire", "traceRelease"}
	gcFrames = []string{"gc", "malloc", "mspan", "mheap", "mcache", "mcentral", "scanobject", "greyobject", "markroot",
		"sweep", "heapBits", "wbBuf", "findObject", "newobject", "makeslice", "growslice", "memclrNoHeapPointers",
		"bulkBarrier", "scanstack", "scanframe", "typePointers", "nextFree", "deductAssistCredit", "heapSetType"}
)

// moduleOf names the module a leaf function belongs to.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		mod := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range profModules {
			if m == mod {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, "."):
		// Assembly routines such as gogo have no package prefix.
		for _, f := range schedFrames {
			if strings.Contains(fn, f) {
				return "runtime_sched"
			}
		}
		for _, f := range gcFrames {
			if strings.Contains(fn, f) {
				return "runtime_gc"
			}
		}
		return "runtime_other"
	}
	return "other"
}

// shares returns each module's percentage of the sampled self time.
func (p *profile) shares() map[string]float64 {
	out := map[string]float64{}
	for _, m := range profModules {
		out[m] = 100 * ratio(float64(p.self[m]), float64(p.total))
	}
	return out
}

// add folds one gzipped pprof CPU profile: each sample's time goes to
// the innermost function of its leaf location.
func (p *profile) add(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		sampleLoc []uint64
		sampleVal []int64
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var loc []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					loc = append(loc, pbUints(v, b)...)
				case 2:
					for _, x := range pbUints(v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil || len(loc) == 0 || len(vals) == 0 {
				return err
			}
			sampleLoc = append(sampleLoc, loc[0])
			sampleVal = append(sampleVal, vals[len(vals)-1])
		case 4: // location
			var id, fn uint64
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if first {
						first = false
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, loc := range sampleLoc {
		mod := "other"
		if s := funcName[locFunc[loc]]; s >= 0 && s < int64(len(strs)) {
			mod = moduleOf(strs[s])
		}
		p.self[mod] += sampleVal[i]
		p.total += sampleVal[i]
	}
	return nil
}

var errProto = errors.New("malformed profile protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints decodes a repeated integer field: packed (data non-nil) or a
// single varint.
func pbUints(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}
