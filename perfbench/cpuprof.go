package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// cpuLayers are the packages the per-layer CPU shares are reported
// for; samples in other packages count toward the total only.
var cpuLayers = []string{"mobility", "poi", "core", "stats", "geo", "experiments", "market", "stream", "runtime"}

// cpuShares attributes each sample of a runtime/pprof CPU profile to
// the innermost frame in a locwatch package (so math and allocation
// calls count toward the layer that made them), or to "runtime" when
// the stack holds no locwatch frame and its leaf is in the runtime
// (garbage collection, scheduling). It returns percentages of all
// sampled CPU time per layer of cpuLayers.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	frames := func(loc uint64) []string {
		var names []string
		for _, fid := range p.locFuncs[loc] {
			names = append(names, p.strings[p.funcName[fid]])
		}
		return names
	}
	totals := map[string]int64{}
	var all int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		all += v
		layer := ""
	walk:
		for _, loc := range s.locs {
			for _, fn := range frames(loc) {
				if pkg := pkgOf(fn); strings.HasPrefix(pkg, "locwatch/internal/") {
					layer = strings.TrimPrefix(pkg, "locwatch/internal/")
					if i := strings.IndexByte(layer, '/'); i >= 0 {
						layer = layer[:i]
					}
					break walk
				}
			}
		}
		if leaf := frames(s.locs[0]); layer == "" && len(leaf) > 0 && strings.HasPrefix(leaf[0], "runtime.") {
			layer = "runtime"
		}
		totals[layer] += v
	}
	if all == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 100 * float64(totals[l]) / float64(all)
	}
	return out, nil
}

// pkgOf returns the import path of a symbol such as
// "locwatch/internal/poi.(*Extractor).Feed".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the subset of the pprof protobuf the attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// pbReader walks protobuf wire format.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// next returns the next field's number, wire type and, for
// length-delimited fields, its bytes (varints are returned in val).
func (r *pbReader) next() (field int, wire int, val uint64, data []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = errors.New("unsupported wire type")
		return 0, 0, 0, nil, false
	}
	return field, wire, val, data, r.err == nil
}

// packed reads a repeated varint field, packed or not.
func packed(wire int, val uint64, data []byte) []uint64 {
	if wire == 0 {
		return []uint64{val}
	}
	r := &pbReader{b: data}
	var out []uint64
	for len(r.b) > 0 && r.err == nil {
		out = append(out, r.varint())
	}
	return out
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := &pbReader{b: raw}
	for {
		field, _, _, data, ok := r.next()
		if !ok {
			break
		}
		switch field {
		case 2: // sample
			var s profSample
			sr := &pbReader{b: data}
			for {
				f, w, v, d, ok := sr.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs = append(s.locs, packed(w, v, d)...)
				case 2:
					for _, x := range packed(w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			lr := &pbReader{b: data}
			for {
				f, _, v, d, ok := lr.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // line; inlined frames come innermost first
					ln := &pbReader{b: d}
					for {
						lf, _, lv, _, ok := ln.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			fr := &pbReader{b: data}
			for {
				f, _, v, _, ok := fr.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for _, n := range p.funcName {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, errors.New("function name outside string table")
		}
	}
	return p, nil
}
