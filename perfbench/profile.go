package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostLayers are the buckets CPU-profile samples are attributed to, in
// report order. Every sample lands in one of them or in none (unbucketed).
var hostLayers = []string{"runtime", "sim", "program", "sync", "network", "mem",
	"cache", "arch", "workloads", "trace"}

// layerPackages maps the simulator's import paths (and their subpackages)
// to host layers.
var layerPackages = []struct{ path, layer string }{
	{"syncron/internal/sim", "sim"},
	{"syncron/internal/program", "program"},
	{"syncron/internal/core", "sync"},
	{"syncron/internal/baselines", "sync"},
	{"syncron/internal/coherlock", "sync"},
	{"syncron/internal/network", "network"},
	{"syncron/internal/mem", "mem"},
	{"syncron/internal/cache", "cache"},
	{"syncron/internal/coherence", "cache"},
	{"syncron/internal/arch", "arch"},
	{"syncron/internal/workloads", "workloads"},
	{"syncron/internal/trace", "trace"},
}

// packageOf returns the import path of a profiled function name such as
// "syncron/internal/sim.(*Engine).Run" or "slices.SortFunc[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain other import paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfFunc maps one function to its host layer, or "" when the function
// belongs to no layer (the standard library outside the runtime, the
// syncron root package, the benchmark itself).
func layerOfFunc(fn string) string {
	if strings.HasPrefix(fn, "main.(*aggTracer)") {
		return "trace" // the benchmark's tracer runs inside System.Run
	}
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/"),
		strings.HasPrefix(fn, "type:"): // compiler-generated equality and hash functions
		return "runtime"
	}
	for _, lp := range layerPackages {
		if pkg == lp.path || strings.HasPrefix(pkg, lp.path+"/") {
			return lp.layer
		}
	}
	return ""
}

// layerOfStack attributes a sample to the layer of its innermost function
// that has one: a leaf in the standard library (sort, math, sync) counts
// toward the simulator layer that called it.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	return ""
}

// insideRun reports whether a sample was taken while System.Run executed:
// on the goroutine calling it, on a goroutine it started (the simulated
// cores' programs), or on a runtime goroutine (GC workers, scheduler). The
// benchmark's set-up, check and analysis code, and the profiler's own
// writer goroutine, are outside.
func insideRun(frames []string) bool {
	benchFrame := false
	for _, fn := range frames {
		switch {
		case fn == "syncron.(*System).Run":
			return true
		case strings.HasPrefix(fn, "runtime/pprof."):
			return false
		case strings.HasPrefix(fn, "main.") && !strings.HasPrefix(fn, "main.(*aggTracer)"):
			benchFrame = true
		}
	}
	return !benchFrame
}

// hostShares buckets the CPU time of the samples taken inside System.Run by
// layer. The shares of hostLayers plus the unbucketed share sum to 1.
func hostShares(samples []profSample) (shares map[string]float64, unbucketed float64, err error) {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		if !insideRun(s.frames) {
			continue
		}
		byLayer[layerOfStack(s.frames)] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile holds no sample inside System.Run")
	}
	shares = map[string]float64{}
	for _, l := range hostLayers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, float64(byLayer[""]) / float64(total), nil
}

// profSample is one CPU-profile sample: its call stack, innermost function
// first (inlined functions included), and how many times it was sampled.
type profSample struct {
	frames []string
	value  int64
}

// parseCPUProfile decodes a gzipped pprof protobuf as runtime/pprof writes
// it. It reads only what bucketing needs: samples, locations, functions and
// the string table.
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strtab  []string
	)
	err = forEachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := forEachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forEachField(b, func(f int, v uint64, _ []byte) error {
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
			err := forEachField(b, func(f int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("cpu profile: sample without a value")
		}
		ps := profSample{value: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx < 0 || idx >= int64(len(strtab)) {
					return nil, fmt.Errorf("cpu profile: function name index %d out of range", idx)
				}
				ps.frames = append(ps.frames, strtab[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// forEachField walks the fields of one protobuf message. Varint fields pass
// their value as v; length-delimited fields pass their bytes as b. Fixed-size
// fields are skipped.
func forEachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("malformed field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("malformed varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field to dst: a single value v
// when unpacked, or every varint of b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
