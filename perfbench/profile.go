package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the layer
// buckets need: every sample's CPU nanoseconds and its call stack.
// Reading the gzip'd protobuf with a small decoder keeps the benchmark
// on the standard library.
type cpuProfile struct {
	samples []profSample
	totalNs int64
}

type profSample struct {
	stack []frame // leaf first, inlined frames expanded
	ns    int64
}

type frame struct {
	fn   string // e.g. "redhip/internal/cache.(*Cache).Lookup"
	file string
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID       = 1
	fFunctionName     = 2
	fFunctionFilename = 4

	fValueTypeType = 1
)

// parseCPUProfile decodes a gzip'd pprof profile as written by
// runtime/pprof.StartCPUProfile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // string indices of each value's type
		rawSamples  []rawSample
		locFns      = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName      = map[uint64]int64{}    // function id -> string index
		fnFile      = map[uint64]int64{}
		strs        []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case fProfileSampleType:
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == fValueTypeType {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case fSampleLocation:
					return appendVarints(&s.locs, w, v, b)
				case fSampleValue:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					// One line per inlined frame, innermost first.
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name, file int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				case fFunctionFilename:
					file = int64(v)
				}
				return nil
			})
			fnName[id], fnFile[id] = name, file
			return err
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	nsIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			nsIdx = i
		}
	}
	if nsIdx < 0 {
		return nil, errors.New("profile: no cpu sample type (not a CPU profile)")
	}
	p := &cpuProfile{}
	for _, s := range rawSamples {
		if nsIdx >= len(s.values) {
			return nil, errors.New("profile: sample lacks its cpu value")
		}
		ps := profSample{ns: s.values[nsIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				ps.stack = append(ps.stack, frame{fn: str(fnName[fid]), file: str(fnFile[fid])})
			}
		}
		p.samples = append(p.samples, ps)
		p.totalNs += ps.ns
	}
	return p, nil
}

// walkFields calls fn for every top-level field of a protobuf message:
// v carries varint and fixed values, b length-delimited payloads.
func walkFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field in either encoding:
// runtime/pprof packs long lists and writes short ones unpacked.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
