package bench

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Frame is one function on a profiled stack.
type Frame struct {
	Func string
	File string
}

// ProfSample is one CPU-profile sample: its stack, leaf first, and the
// CPU time it stands for.
type ProfSample struct {
	Stack []Frame
	Nanos int64
}

// DecodeProfile parses the gzipped protobuf that runtime/pprof writes
// for a CPU profile. Only the fields the fold needs are read: samples,
// locations (with their inlined lines), functions and the string table.
func DecodeProfile(gz []byte) ([]ProfSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	type fn struct{ name, file int64 }
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs     = map[uint64]fn{}
		strs      []string
		typeUnits []int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					typeUnits = append(typeUnits, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return packed(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(w, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var f fn
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU-time column is the sample type measured in nanoseconds.
	col := -1
	for i, u := range typeUnits {
		if str(u) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no nanoseconds sample column")
	}
	out := make([]ProfSample, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.vals) {
			return nil, errors.New("profile: short sample")
		}
		ps := ProfSample{Nanos: s.vals[col]}
		for _, l := range s.locs {
			for _, fid := range locLines[l] {
				f := funcs[fid]
				ps.Stack = append(ps.Stack, Frame{Func: str(f.name), File: str(f.file)})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks one protobuf message, calling f with the field number,
// wire type, and either the varint value or the length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field in either its packed
// (length-delimited) or unpacked form.
func packed(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const repoPkg = "cloud9/internal/"

// LayerOf names the layer a frame belongs to: the internal package it
// lives in, except that the engine's strategy files count as the search
// layer, and the benchmark's own frames as "bench". Frames outside the
// repository (runtime, standard library) have no layer.
func LayerOf(f Frame) string {
	if strings.HasPrefix(f.Func, "cloud9/perfbench/") {
		return "bench"
	}
	if !strings.HasPrefix(f.Func, repoPkg) {
		return ""
	}
	pkg := f.Func[len(repoPkg):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "engine" && (strings.HasSuffix(f.File, "/strategy.go") || strings.HasSuffix(f.File, "/dist.go")) {
		return "search"
	}
	return pkg
}

// Entry points whose cumulative time the fold reports, keyed by metric.
var entryPoints = map[string][]string{
	"solver.query_s": {
		"cloud9/internal/solver.(*Solver).Fork",
		"cloud9/internal/solver.(*Solver).MayBeTrue",
		"cloud9/internal/solver.(*Solver).MustBeTrue",
		"cloud9/internal/solver.(*Solver).CheckSat",
		"cloud9/internal/solver.(*Solver).Solve",
		"cloud9/internal/solver.(*Solver).SolveWith",
	},
	"interp.advance_s":     {"cloud9/internal/interp.(*Interp).Advance"},
	"state.clone_s":        {"cloud9/internal/state.(*S).Fork"},
	"cluster.lb_tick_s":    {"cloud9/internal/cluster.(*LoadBalancer).Tick"},
	"cluster.lb_update_s":  {"cloud9/internal/cluster.(*LoadBalancer).Update"},
	"cluster.lb_balance_s": {"cloud9/internal/cluster.(*LoadBalancer).Balance"},
}

// Fold is a CPU profile folded into per-layer self time and cumulative
// time under each layer's public entry points, in seconds, with the
// number of samples behind every figure.
type Fold struct {
	Self       map[string]float64 // layer -> self seconds
	SelfN      map[string]int
	Cum        map[string]float64 // metric -> cumulative seconds
	CumN       map[string]int
	Background float64 // samples with no repository frame (GC workers, scavenger)
	Total      float64
	Samples    int
}

// FoldProfile charges each sample to the innermost repository frame on
// its stack, so runtime work a layer triggers (allocation, map access,
// write barriers, GC assists) counts as that layer's self time. Samples
// with no repository frame at all are background runtime work.
func FoldProfile(samples []ProfSample) Fold {
	f := Fold{Self: map[string]float64{}, SelfN: map[string]int{}, Cum: map[string]float64{}, CumN: map[string]int{}}
	entryOf := map[string]string{}
	for metric, fns := range entryPoints {
		for _, fn := range fns {
			entryOf[fn] = metric
		}
	}
	for _, s := range samples {
		sec := float64(s.Nanos) / 1e9
		f.Total += sec
		f.Samples++
		layer := ""
		for _, fr := range s.Stack {
			if layer = LayerOf(fr); layer != "" {
				break
			}
		}
		if layer == "" {
			f.Background += sec
		} else {
			f.Self[layer] += sec
			f.SelfN[layer]++
		}
		seen := map[string]bool{}
		for _, fr := range s.Stack {
			if m, ok := entryOf[fr.Func]; ok && !seen[m] {
				seen[m] = true
				f.Cum[m] += sec
				f.CumN[m]++
			}
		}
	}
	return f
}

// Folded renders samples in the folded-stack text format (root first,
// frames joined by ';', then the sample count), sorted for diffing.
func Folded(samples []ProfSample) string {
	counts := map[string]int{}
	for _, s := range samples {
		names := make([]string, len(s.Stack))
		for i, fr := range s.Stack {
			names[len(s.Stack)-1-i] = fr.Func
		}
		counts[strings.Join(names, ";")]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, counts[k])
	}
	return b.String()
}
