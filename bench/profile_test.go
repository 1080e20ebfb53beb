package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/attrib.pprof from fixtureProfile")

const attribFixture = "attrib.pprof"

// TestAttribution reads the committed fixture and checks each rule of
// layer attribution on it.
func TestAttribution(t *testing.T) {
	path := filepath.Join("testdata", attribFixture)
	if *update {
		if err := os.WriteFile(path, fixtureProfile(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := attribute(p)
	if err != nil {
		t.Fatal(err)
	}
	const ms = 1_000_000
	want := map[string]int64{
		"dram":    30 * ms, // inlined into memctrl: the innermost frame wins
		"sim":     20 * ms, // runtime.mallocgc counts to its repro caller
		"obs":     10 * ms, // obs/httpserv is obs; sort.Slice counts to it
		"runtime": 50 * ms, // no repro frame: a GC worker and main.main
	}
	var sum int64
	for layer, ns := range a.layerNS {
		sum += ns
		if ns != want[layer] {
			t.Errorf("layer %s: %d ns, want %d", layer, ns, want[layer])
		}
	}
	if len(a.layerNS) != len(want) {
		t.Errorf("layers %v, want %v", a.layerNS, want)
	}
	if sum != a.totalNS || a.totalNS != 110*ms {
		t.Errorf("layers sum to %d, total %d, want both %d", sum, a.totalNS, 110*ms)
	}
	if a.gcNS != 40*ms || a.samples != 11 {
		t.Errorf("gc %d ns over %d samples, want %d over 11", a.gcNS, a.samples, 40*ms)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	data := ungzip(t, fixtureProfile(t))
	if _, err := parseProfile(data[:len(data)-3]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func ungzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// pb appends protobuf fields.
type pb []byte

func (p *pb) varint(field int, v uint64) {
	*p = binary.AppendUvarint(*p, uint64(field)<<3)
	*p = binary.AppendUvarint(*p, v)
}

func (p *pb) bytes(field int, b []byte) {
	*p = binary.AppendUvarint(*p, uint64(field)<<3|2)
	*p = binary.AppendUvarint(*p, uint64(len(b)))
	*p = append(*p, b...)
}

// ints writes a repeated integer field the way runtime/pprof does:
// packed when longer than two, one varint each otherwise.
func (p *pb) ints(field int, vs []uint64) {
	if len(vs) <= 2 {
		for _, v := range vs {
			p.varint(field, v)
		}
		return
	}
	var packed []byte
	for _, v := range vs {
		packed = binary.AppendUvarint(packed, v)
	}
	p.bytes(field, packed)
}

// fixtureProfile encodes a gzip'd CPU profile of five stacks, one per
// attribution rule, with samples/count and cpu/nanoseconds values.
func fixtureProfile(t *testing.T) []byte {
	strs := []string{""}
	str := func(s string) uint64 {
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.varint(valueTypeType, str(vt[0]))
		m.varint(valueTypeUnit, str(vt[1]))
		prof.bytes(profSampleType, m)
	}
	funcs := []string{
		"repro/internal/memctrl.(*Controller).StepOrJump", // 1
		"repro/internal/dram.(*Channel).Issue",            // 2
		"runtime.mallocgc",                                // 3
		"repro/internal/obs/httpserv.(*Server).serve",     // 4
		"main.main",                            // 5
		"runtime.gcBgMarkWorker",               // 6
		"sort.Slice",                           // 7
		"repro/internal/sim.(*Runner).runLoop", // 8
	}
	for i, name := range funcs {
		var m pb
		m.varint(functionID, uint64(i+1))
		m.varint(functionName, str(name))
		prof.bytes(profFunction, m)
	}
	// Location 1 holds dram inlined into memctrl; every later location k
	// holds function k+1 alone.
	locs := [][]uint64{{2, 1}, {3}, {4}, {5}, {6}, {7}, {8}}
	for i, fns := range locs {
		var m pb
		m.varint(locationID, uint64(i+1))
		for _, fn := range fns {
			var line pb
			line.varint(lineFunction, fn)
			m.bytes(locationLine, line)
		}
		prof.bytes(profLocation, m)
	}
	const ms = 1_000_000
	for _, s := range []struct {
		locs  []uint64
		count uint64
	}{
		{[]uint64{1, 7, 4}, 3}, // dram (inlined) <- sim <- main
		{[]uint64{2, 7, 4}, 2}, // mallocgc <- sim <- main
		{[]uint64{6, 3}, 1},    // sort.Slice <- httpserv
		{[]uint64{5}, 4},       // GC worker
		{[]uint64{2, 4}, 1},    // mallocgc <- main
	} {
		var m pb
		m.ints(sampleLocation, s.locs)
		m.ints(sampleValue, []uint64{s.count, s.count * 10 * ms})
		prof.bytes(profSample, m)
	}
	for _, s := range strs {
		prof.bytes(profString, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
