package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Profile layers, in the order the traced run reports their shares. Every
// CPU sample lands in exactly one.
var layers = []string{
	"sim.events", "sim.handoff", "dvswitch.core", "dvswitch.fast", "vic", "dv",
	"mpi", "cluster", "app", "runtime.gc", "runtime.alloc", "runtime.other", "other",
}

// layerMetric names the share metric of a layer: "sim.events" reports as
// sim.events_frac, "vic" as vic.frac.
func layerMetric(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_frac"
	}
	return layer + ".frac"
}

// modules maps a repo package path to the layer its frames count for.
var modules = map[string]string{
	"repro/internal/vic":       "vic",
	"repro/internal/dv":        "dv",
	"repro/internal/comm":      "dv",
	"repro/internal/mpi":       "mpi",
	"repro/internal/ib":        "mpi",
	"repro/internal/cluster":   "cluster",
	"repro/internal/apprt":     "cluster",
	"repro/internal/fftkernel": "app",
}

// handoffFuncs are the sim functions that move control between the kernel
// goroutine and a process goroutine over channels.
var handoffFuncs = []string{
	"(*Proc).park", "(*Proc).transfer", "(*Kernel).resumeProc", "fireResume",
	"(*Kernel).Spawn.", "(*Kernel).drain", "fireGateWake", "fireGateTimeout",
}

// Runtime frames below the innermost repo frame that mark garbage
// collection (marking, sweeping, scavenging, assists, write barriers) or
// allocation.
var (
	gcFrames = []string{"gc", "markroot", "scanobject", "scanblock", "scanstack",
		"greyobject", "wbBuf", "bulkBarrier", "bgsweep", "sweepone", "(*mspan).sweep",
		"(*sweepLocked).sweep", "bgscavenge", "(*scavengerState)", "(*gcWork)"}
	allocFrames = []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice",
		"makemap", "makechan", "(*mcache).", "(*mcentral).", "(*mheap).alloc", "rawstring",
		"rawbyteslice"}
	schedFrames = []string{"mcall", "park_m", "schedule", "findRunnable", "gosched_m",
		"goschedImpl", "gopark", "goready", "ready", "stopm", "startm", "wakep", "notesleep",
		"notewakeup", "futexsleep", "futexwakeup", "goexit0", "newproc",
		"chanrecv", "chansend", "execute", "runqgrab", "stealWork"}
)

// pkgOf splits a profile function name into its package path and the rest:
// "repro/internal/sim.(*Kernel).fire" gives "repro/internal/sim" and
// "(*Kernel).fire". Type arguments in brackets are ignored.
func pkgOf(fn string) (pkg, rest string) {
	head := fn
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	cut := slash + 1 + dot
	return fn[:cut], fn[cut+1:]
}

// runtimeFrame reports whether fn is a runtime function whose name after
// "runtime." starts with one of names.
func runtimeFrame(fn string, names []string) bool {
	rest, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, n := range names {
		if strings.HasPrefix(rest, n) {
			return true
		}
	}
	return false
}

// repoLayer returns the layer of a frame from this repository (or the
// benchmark itself), and false for standard-library and runtime frames.
// sim.RNG frames count for their caller, so they report false too.
func repoLayer(fn string) (string, bool) {
	pkg, rest := pkgOf(fn)
	switch {
	case pkg == "main" || pkg == "repro/perfbench":
		return "other", true
	case !strings.HasPrefix(pkg, "repro/"):
		return "", false
	case pkg == "repro/internal/sim":
		if strings.HasPrefix(rest, "(*RNG).") || rest == "NewRNG" {
			return "", false
		}
		for _, h := range handoffFuncs {
			if strings.HasPrefix(rest, h) || rest == strings.TrimSuffix(h, ".") {
				return "sim.handoff", true
			}
		}
		return "sim.events", true
	case pkg == "repro/internal/dvswitch":
		return "dvswitch", true
	case strings.HasPrefix(pkg, "repro/internal/apps/"):
		return "app", true
	}
	if l, ok := modules[pkg]; ok {
		return l, true
	}
	return "other", true
}

// classify assigns one sample's stack, leaf first, to a layer. The sample
// goes to its innermost repo frame, except that garbage collection and
// allocation frames below that frame count as runtime.gc and
// runtime.alloc, and a stack with no repo frame counts as sim.handoff when
// it is scheduler work (the process handoff's other half) and
// runtime.other otherwise.
func classify(stack []string) string {
	inner := len(stack)
	layer := ""
	for i, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			inner, layer = i, l
			break
		}
	}
	below := stack[:inner]
	for _, fn := range below {
		if runtimeFrame(fn, gcFrames) {
			return "runtime.gc"
		}
	}
	for _, fn := range below {
		if runtimeFrame(fn, allocFrames) {
			return "runtime.alloc"
		}
	}
	switch layer {
	case "":
		for _, fn := range stack {
			if runtimeFrame(fn, schedFrames) {
				return "sim.handoff"
			}
		}
		return "runtime.other"
	case "dvswitch":
		// Shared helpers (Stats, rings) count for the model that called them.
		for _, fn := range stack[inner:] {
			pkg, rest := pkgOf(fn)
			if pkg != "repro/internal/dvswitch" {
				break
			}
			if strings.Contains(rest, "FastModel") || strings.HasPrefix(rest, "fireDelivery") {
				return "dvswitch.fast"
			}
		}
		return "dvswitch.core"
	}
	return layer
}

// cpuProfile is the part of a pprof CPU profile the classifier needs: each
// sample's stack (function names, leaf first, inlined frames expanded) and
// its sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// shares classifies every sample and returns each layer's share of the
// samples, plus the sample total.
func (p *cpuProfile) shares() (map[string]float64, int64) {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for i, st := range p.stacks {
		out[classify(st)] += float64(p.counts[i])
		total += p.counts[i]
	}
	if total > 0 {
		for l := range out {
			out[l] /= float64(total)
		}
	}
	return out, total
}

// merge appends q's samples to p.
func (p *cpuProfile) merge(q *cpuProfile) {
	p.stacks = append(p.stacks, q.stacks...)
	p.counts = append(p.counts, q.counts...)
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes. It reads only samples, locations,
// functions and the string table.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var st []string
		for _, l := range s.locs {
			for _, fid := range locFns[l] {
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, st)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// varint decodes one protobuf varint from b.
func varint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields, which profile.proto does not use here, are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n, err := varint(msg)
		if err != nil {
			return err
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n, err = varint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n, err := varint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if uint64(len(msg)) < l {
				return errTruncated
			}
			b, msg = msg[:l], msg[l:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value when
// the field came unpacked (b nil), every varint in b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n, err := varint(b)
		if err != nil {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
