package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// cpuProfile collects a CPU profile in memory between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends profiling and returns the self time per bucket as shares of
// all sampled CPU time: one bucket per rog/internal/<module>, plus
// "runtime.gc_malloc" (any stack under the allocator or a GC worker),
// "syscall" (leaf in a system call or the netpoller), "bench" (this
// program), "runtime" and "other".
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	return prof.shares(), nil
}

// profileData is the subset of profile.proto the grouping needs.
type profileData struct {
	strings   []string
	funcName  map[uint64]int64    // function id → name string index
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	samples   [][]uint64          // location ids, leaf first
	sampleVal []int64             // last value of each sample (CPU ns)
}

func (p *profileData) name(fn uint64) string {
	i := p.funcName[fn]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func (p *profileData) shares() map[string]float64 {
	out := map[string]float64{}
	var total float64
	for i, locs := range p.samples {
		v := float64(p.sampleVal[i])
		total += v
		out[p.bucket(locs)] += v
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

func (p *profileData) bucket(locs []uint64) string {
	var leaf string
	for i, loc := range locs {
		for j, fn := range p.locFuncs[loc] {
			name := p.name(fn)
			if i == 0 && j == 0 {
				leaf = name
			}
			switch name {
			case "runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
				"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart":
				return "runtime.gc_malloc"
			}
		}
	}
	switch {
	case strings.HasPrefix(leaf, "syscall."), strings.HasPrefix(leaf, "internal/runtime/syscall."),
		strings.HasPrefix(leaf, "runtime/internal/syscall."), leaf == "runtime.futex",
		leaf == "runtime.epollwait", leaf == "runtime.write1", leaf == "runtime.read",
		leaf == "runtime.usleep", leaf == "runtime.nanotime1":
		return "syscall"
	case strings.HasPrefix(leaf, "rog/internal/"):
		mod := strings.TrimPrefix(leaf, "rog/internal/")
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		return mod
	case strings.HasPrefix(leaf, "rog/perfbench"), strings.HasPrefix(leaf, "main."):
		return "bench"
	case strings.HasPrefix(leaf, "runtime."):
		return "runtime"
	default:
		return "other"
	}
}

// sortedShares renders shares largest first for the report.
func sortedShares(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.1f%%", k, 100*m[k])
	}
	return b.String()
}

// pbReader walks protobuf wire format.
type pbReader struct {
	b   []byte
	err error
}

var errPB = errors.New("cpu profile: malformed protobuf")

func (r *pbReader) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errPB
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	r.err = errPB
	return 0
}

// next returns the next field's number, wire type and, for length-
// delimited fields, its bytes; for varints, its value.
func (r *pbReader) next() (field int, wire int, val uint64, data []byte) {
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errPB
			return
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = errPB
			return
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errPB
			return
		}
		r.b = r.b[4:]
	default:
		r.err = errPB
	}
	return
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	r := pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		field, wire, _, data := r.next()
		if r.err != nil {
			break
		}
		var err error
		switch field {
		case 2: // sample
			err = p.decodeSample(data)
		case 4: // location
			err = p.decodeLocation(data)
		case 5: // function
			err = p.decodeFunction(data)
		case 6: // string_table
			if wire == 2 {
				p.strings = append(p.strings, string(data))
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return p, r.err
}

func (p *profileData) decodeSample(b []byte) error {
	var locs, vals []uint64
	r := pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		field, wire, val, data := r.next()
		var err error
		switch field {
		case 1:
			locs, err = uints(locs, wire, val, data)
		case 2:
			vals, err = uints(vals, wire, val, data)
		}
		if err != nil {
			return err
		}
	}
	if r.err != nil {
		return r.err
	}
	var v int64
	if len(vals) > 0 {
		v = int64(vals[len(vals)-1])
	}
	p.samples = append(p.samples, locs)
	p.sampleVal = append(p.sampleVal, v)
	return nil
}

func (p *profileData) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	r := pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		field, _, val, data := r.next()
		switch field {
		case 1:
			id = val
		case 4: // line
			lr := pbReader{b: data}
			for len(lr.b) > 0 && lr.err == nil {
				f, _, v, _ := lr.next()
				if f == 1 {
					fns = append(fns, v)
				}
			}
			if lr.err != nil {
				return lr.err
			}
		}
	}
	p.locFuncs[id] = fns
	return r.err
}

func (p *profileData) decodeFunction(b []byte) error {
	var id uint64
	var name int64
	r := pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		field, _, val, _ := r.next()
		switch field {
		case 1:
			id = val
		case 2:
			name = int64(val)
		}
	}
	p.funcName[id] = name
	return r.err
}
