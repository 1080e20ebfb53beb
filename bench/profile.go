package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// errBadProfile reports a profile.proto that does not decode.
var errBadProfile = errors.New("bench: malformed profile")

// profile is the part of a profile.proto that layer attribution needs.
// runtime/pprof writes profiles already symbolized, so function names are
// in the file and no binary is needed.
type profile struct {
	// sampleTypes names each sample value as "type/unit", e.g.
	// "cpu/nanoseconds".
	sampleTypes []string
	samples     []sample
}

// sample is one recorded stack. frames lists its function names innermost
// first, with inlined calls expanded in place.
type sample struct {
	values []int64
	frames []string
}

// readProfile decodes a gzip-compressed profile.proto file.
func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Field numbers of the profile.proto messages read here.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profString     = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes an uncompressed profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs    []string
		types   [][2]uint64
		raws    []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcIdx = map[uint64]uint64{}   // function id -> string-table index of its name
	)
	err := eachField(data, func(num int, wire, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			var t [2]uint64
			err := eachField(b, func(num int, _, v uint64, _ []byte) error {
				switch num {
				case valueTypeType:
					t[0] = v
				case valueTypeUnit:
					t[1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case profSample:
			var s rawSample
			err := eachField(b, func(num int, wire, v uint64, b []byte) error {
				var err error
				switch num {
				case sampleLocation:
					s.locs, err = appendInts(s.locs, wire, v, b)
				case sampleValue:
					s.vals, err = appendInts(s.vals, wire, v, b)
				}
				return err
			})
			raws = append(raws, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, _, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, _, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num int, _, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcIdx[id] = name
			return err
		case profString:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("%w: string index %d of %d", errBadProfile, i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for _, r := range raws {
		if len(r.vals) != len(p.sampleTypes) {
			return nil, fmt.Errorf("%w: sample has %d values for %d types", errBadProfile, len(r.vals), len(p.sampleTypes))
		}
		s := sample{values: make([]int64, len(r.vals))}
		for i, v := range r.vals {
			s.values[i] = int64(v)
		}
		for _, loc := range r.locs {
			fns, ok := locs[loc]
			if !ok {
				return nil, fmt.Errorf("%w: unknown location %d", errBadProfile, loc)
			}
			for _, fn := range fns {
				idx, ok := funcIdx[fn]
				if !ok {
					return nil, fmt.Errorf("%w: unknown function %d", errBadProfile, fn)
				}
				name, err := str(idx)
				if err != nil {
					return nil, err
				}
				s.frames = append(s.frames, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: num is the
// field number and wire its wire type; v carries a varint or fixed-width
// value, b the payload of a length-delimited field.
func eachField(data []byte, fn func(num int, wire, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProfile
		}
		data = data[n:]
		wire := key & 7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadProfile
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProfile
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errBadProfile
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProfile
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errBadProfile, wire)
		}
		if err := fn(int(key>>3), wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends one occurrence of a repeated integer field, which
// runtime/pprof writes packed (wire type 2) for long lists and as single
// varints otherwise.
func appendInts(dst []uint64, wire, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBadProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

func (p *profile) valueIndex(sampleType string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == sampleType {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: no %s values (have %v)", errBadProfile, sampleType, p.sampleTypes)
}

// reproPrefix marks the frames that belong to a layer of the simulator.
const reproPrefix = "repro/internal/"

// layerOf names the layer one stack is charged to: the package of its
// innermost repro/internal frame (a subpackage such as obs/httpserv
// counts as its parent), so standard-library and runtime frames count to
// their repro caller. A stack with no repro frame is charged to
// "runtime".
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, reproPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	return "runtime"
}

// gcRoots are the runtime functions under which garbage-collection work
// runs: background mark workers, allocation assists, the sweeper and the
// scavenger.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// attribution is CPU time split by layer. The layers sum to totalNS by
// construction.
type attribution struct {
	layerNS map[string]int64
	totalNS int64
	// gcNS is the part of totalNS spent under a gcRoots frame.
	gcNS    int64
	samples int64
}

// attribute charges every CPU sample of p to its layer.
func attribute(p *profile) (attribution, error) {
	ns, err := p.valueIndex("cpu/nanoseconds")
	if err != nil {
		return attribution{}, err
	}
	cnt, err := p.valueIndex("samples/count")
	if err != nil {
		return attribution{}, err
	}
	a := attribution{layerNS: map[string]int64{}}
	for _, s := range p.samples {
		v := s.values[ns]
		a.layerNS[layerOf(s.frames)] += v
		a.totalNS += v
		a.samples += s.values[cnt]
		for _, f := range s.frames {
			if gcRoots[f] {
				a.gcNS += v
				break
			}
		}
	}
	return a, nil
}

// add accumulates another attribution into a.
func (a *attribution) add(b attribution) {
	if a.layerNS == nil {
		a.layerNS = map[string]int64{}
	}
	for k, v := range b.layerNS {
		a.layerNS[k] += v
	}
	a.totalNS += b.totalNS
	a.gcNS += b.gcNS
	a.samples += b.samples
}
