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

// The CPU profile is a gzipped profile.proto message. Decoding the few
// fields attribution needs takes a varint reader and a field walker, so the
// benchmark adds no module dependency and starts no `go tool pprof`.

var errTruncated = errors.New("pprof: truncated message")

// pbField is one protobuf field: its number, wire type, and payload (the
// value for varints, the bytes for length-delimited fields).
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbFields decodes one message's fields in order.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0: // varint
			f.value, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// Field numbers of profile.proto (github.com/google/pprof/proto/profile.proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

// leafSample is one profile sample reduced to its innermost function name
// and its CPU value.
type leafSample struct {
	fn    string
	value int64
}

// decodeLeaves reads a (gzipped or plain) profile.proto and returns each
// sample's leaf function with the value of its "cpu" sample type (the last
// type when none is named cpu).
func decodeLeaves(r io.Reader) ([]leafSample, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("pprof: read: %w", err)
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: gzip: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: gzip: %w", err)
		}
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	var typeIdx []uint64 // string index of each sample type's name
	locFn := make(map[uint64]uint64)
	fnName := make(map[uint64]uint64)
	var samples [][]pbField
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		if f.num == profStringTable {
			strs = append(strs, string(f.bytes))
			continue
		}
		if f.num != profSampleType && f.num != profSample && f.num != profLocation && f.num != profFunction {
			continue
		}
		sub, err := pbFields(f.bytes)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case profSampleType:
			for _, g := range sub {
				if g.num == valueTypeType {
					typeIdx = append(typeIdx, g.value)
				}
			}
		case profSample:
			samples = append(samples, sub)
		case profLocation:
			var id, fn uint64
			for _, g := range sub {
				switch {
				case g.num == locationID:
					id = g.value
				case g.num == locationLine && fn == 0:
					// The first line is the innermost inlined function.
					lines, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range lines {
						if l.num == lineFunction {
							fn = l.value
						}
					}
				}
			}
			locFn[id] = fn
		case profFunction:
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case functionID:
					id = g.value
				case functionName:
					name = g.value
				}
			}
			fnName[id] = name
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := len(typeIdx) - 1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("pprof: profile has no sample types")
	}
	out := make([]leafSample, 0, len(samples))
	for _, s := range samples {
		var locs, vals []uint64
		for _, g := range s {
			var err error
			switch g.num {
			case sampleLocationID:
				var v []uint64
				v, err = g.varints()
				locs = append(locs, v...)
			case sampleValue:
				var v []uint64
				v, err = g.varints()
				vals = append(vals, v...)
			}
			if err != nil {
				return nil, err
			}
		}
		if len(locs) == 0 || vi >= len(vals) {
			continue
		}
		out = append(out, leafSample{fn: str(fnName[locFn[locs[0]]]), value: int64(vals[vi])})
	}
	return out, nil
}

// layerOf charges a function to a layer: hintm/internal/<pkg> is <pkg>, the
// Go runtime (runtime and its runtime/... and internal/runtime/... helper
// packages, which hold the map and GC internals since Go 1.24) is
// "runtime", and everything else is "other". Layers without a metric of
// their own fold into "other" too.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i] // type arguments and receivers can hold '/' and '.'
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "hintm/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "hintm/internal/"), "/")
		for _, l := range cpuLayers {
			if l == name {
				return name
			}
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuShares attributes flat CPU time to layers; the shares sum to 1 over
// cpuLayers (all zero for an empty profile).
func cpuShares(samples []leafSample) map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total float64
	for _, s := range samples {
		out[layerOf(s.fn)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out
}
