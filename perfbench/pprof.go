package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a runtime/pprof CPU profile the benchmark
// reads: each sample's stack as function names, leaf first, with its
// sample count. The standard library writes profiles but has no reader,
// so this file decodes the protobuf wire format of profile.proto for the
// four messages it needs (Profile, Sample, Location/Line, Function).
type profile struct {
	stacks [][]string
	counts []int64
}

// Field numbers in profile.proto.
const (
	pbProfileSample   = 2
	pbProfileLocation = 4
	pbProfileFunction = 5
	pbProfileStrings  = 6
	pbSampleLocation  = 1
	pbSampleValue     = 2
	pbLocationID      = 1
	pbLocationLine    = 4
	pbLineFunction    = 1
	pbFunctionID      = 1
	pbFunctionName    = 2
)

func parseProfile(gz []byte) (*profile, error) {
	if len(gz) == 0 {
		return &profile{}, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location → function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function → string index
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case pbProfileSample:
			var s sample
			var vals []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case pbSampleLocation:
					return pbRepeated(v, b, &s.locs)
				case pbSampleValue:
					return pbRepeated(v, b, &vals)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case pbProfileLocation:
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case pbLocationID:
					id = v
				case pbLocationLine:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == pbLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case pbProfileFunction:
			var id, name uint64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case pbFunctionID:
					id = v
				case pbFunctionName:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case pbProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none the reader needs.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field, packed or not.
func pbRepeated(v uint64, data []byte, dst *[]uint64) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuBuckets accumulates CPU samples by the layer that spent them.
type cpuBuckets struct {
	total  int64
	bucket map[string]int64
}

const (
	solverPkg = "flexwan/internal/solver."
	planPkg   = "flexwan/internal/plan."
)

// classify names the bucket of one stack (leaf first). Garbage
// collection anywhere on the stack wins; otherwise the innermost frame
// that belongs to a named solver phase decides, and frames under the
// solver's entry point that match no phase count as other solver work.
// Planning code outside the solver is model build.
func classify(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f, solverPkg+"(*luFactor)."), strings.HasPrefix(f, solverPkg+"(*uStore)."):
			return "lu"
		case f == solverPkg+"(*rxScratch).priceCol":
			return "pricing"
		case strings.HasPrefix(f, solverPkg+"(*presolved)."), f == solverPkg+"(*Model).presolve":
			return "presolve"
		case f == solverPkg+"(*Model).SolveWithOptions":
			return "solver"
		case strings.HasPrefix(f, planPkg):
			return "plan.build"
		}
	}
	return "other"
}

func (c *cpuBuckets) add(p *profile) {
	if c.bucket == nil {
		c.bucket = map[string]int64{}
	}
	for i, stack := range p.stacks {
		c.total += p.counts[i]
		c.bucket[classify(stack)] += p.counts[i]
	}
}

// share is the fraction of all profiled samples in the bucket.
func (c *cpuBuckets) share(name string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.bucket[name]) / float64(c.total)
}
