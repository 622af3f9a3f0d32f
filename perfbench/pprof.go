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

// The CPU profile is a gzipped profile.proto message. The standard library
// writes it but cannot read it, so this file decodes the few fields the
// package grouping needs: samples (location IDs and values), locations
// (their line entries' function IDs), functions (their name) and the
// string table.

// profileShares groups a CPU profile's samples by the package layer that
// was running: "gc" for the collector's workers, assists and write
// barriers; otherwise the innermost prdrb package on the stack, so runtime
// helpers (map lookups, allocation, copies) count toward the layer that
// called them; "other" for samples with no prdrb frame.
type profileShares struct {
	samples int64
	byGroup map[string]int64
	last    []byte // the most recent profile, as written
}

func (p *profileShares) add(data []byte) error {
	p.last = data
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	if p.byGroup == nil {
		p.byGroup = map[string]int64{}
	}
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locations {
			for _, fn := range prof.locFuncs[loc] {
				frames = append(frames, prof.strings[prof.funcNames[fn]])
			}
		}
		p.byGroup[groupOf(frames)] += s.values[0]
		p.samples += s.values[0]
	}
	return nil
}

// share is a group's fraction of all samples.
func (p *profileShares) share(group string) float64 {
	if p.samples == 0 {
		return 0
	}
	return float64(p.byGroup[group]) / float64(p.samples)
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.wbBufFlush",
	"runtime.gcWriteBarrier", "runtime.markroot", "runtime.scanobject", "runtime.greyobject",
}

// groupOf classifies one stack, leaf first.
func groupOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, "prdrb/internal/"); ok {
			if i := strings.IndexByte(pkg, '.'); i > 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
	}
	return "other"
}

type profSample struct {
	locations []uint64
	values    []int64
}

type decodedProfile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcNames map[uint64]int64    // function ID -> string table index
	strings   []string
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: varint value, or bytes for
// length-delimited fields.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbFields decodes the top-level fields of a protobuf message.
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
		case 0:
			f.value, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func varints(f pbField) ([]uint64, error) {
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

func decodeProfile(raw []byte) (*decodedProfile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &decodedProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fields, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, sf := range fields {
				vs, err := varints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locations = append(s.locations, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			fields, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fields {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // Line
					lines, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range lines {
						if l.num == 1 {
							fns = append(fns, l.value)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function
			fields, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fields {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = int64(ff.value)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	for _, name := range p.funcNames {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", name)
		}
	}
	return p, nil
}
