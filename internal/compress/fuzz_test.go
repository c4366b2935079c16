package compress

import (
	"testing"

	"cadb/internal/storage"
)

// fuzzDesign is one codec configuration the decode fuzzer drives.
type fuzzDesign struct {
	name string
	make func() storage.PageCodec
}

// fuzzDesigns covers every codec: the row-major NONE/ROW, the column-major
// PAGE, GDICT, RLE, and a mixed per-column design.
var fuzzDesigns = []fuzzDesign{
	{"NONE", func() storage.PageCodec { return Codec(None) }},
	{"ROW", func() storage.PageCodec { return Codec(Row) }},
	{"PAGE", func() storage.PageCodec { return Codec(Page) }},
	{"GDICT", func() storage.PageCodec { return Codec(GlobalDict) }},
	{"RLE", func() storage.PageCodec { return Codec(RLE) }},
	{"MIXED", func() storage.PageCodec {
		return DesignCodec(Row, map[string]Method{"mode": GlobalDict, "comment": GlobalDict, "ship": RLE, "price": None, "qty": Page})
	}},
}

// fuzzSegments builds one segment per fuzz design over a fixed row set and
// returns them with decoders in the state a reopened segment file has: a
// stateful codec is a fresh instance fed the built codec's state through
// LoadSegmentState. The build is deterministic, so the committed seed
// corpus (pages of these segments) stays decodable.
func fuzzSegments(tb testing.TB) ([]*storage.Segment, []storage.PageCodec) {
	tb.Helper()
	s := codecSchema()
	rows := genCodecRows(40, 0.2, 61)
	segs := make([]*storage.Segment, len(fuzzDesigns))
	decoders := make([]storage.PageCodec, len(fuzzDesigns))
	for i, d := range fuzzDesigns {
		seg, err := storage.BuildSegment(s, rows, d.make())
		if err != nil {
			tb.Fatalf("%s: BuildSegment: %v", d.name, err)
		}
		segs[i], decoders[i] = seg, seg.Codec
		if sc, ok := seg.Codec.(storage.StatefulCodec); ok {
			fresh := d.make()
			if err := fresh.(storage.StatefulCodec).LoadSegmentState(s, sc.SegmentState()); err != nil {
				tb.Fatalf("%s: LoadSegmentState: %v", d.name, err)
			}
			decoders[i] = fresh
		}
	}
	return segs, decoders
}

// fuzzSpec derives a valid decode spec over s from 64 fuzzed bits: bits
// 0-7 pick the needed columns, bits 8-23 and 24-39 each describe an optional
// predicate, bit 40 turns on a slot filter whose slots are the set bits
// among 41-63. A predicate's 16 bits are: enable, 3 column, 3 operator,
// 3 lower bound, 3 upper bound, NULL lower bound.
func fuzzSpec(s *storage.Schema, bits uint64) *storage.DecodeSpec {
	spec := &storage.DecodeSpec{}
	for ci := range s.Columns {
		if bits&(1<<uint(ci)) != 0 {
			spec.Needed = append(spec.Needed, ci)
		}
	}
	bounds := []storage.Value{
		storage.IntVal(0), storage.IntVal(-3), storage.IntVal(25),
		storage.FloatVal(0.5), storage.DateVal(1000), storage.StringVal("RAIL"),
		storage.StringVal("xx"), storage.StringVal(""),
	}
	for _, at := range []uint{8, 24} {
		b := bits >> at
		if b&1 == 0 {
			continue
		}
		ci := int(b>>1&7) % len(s.Columns)
		kind := s.Columns[ci].Kind
		p := storage.ColPredicate{
			Col: ci,
			Op:  storage.PredOp((b >> 4 & 7) % 7),
			Lo:  bounds[b>>7&7].CoerceTo(kind),
			Hi:  bounds[b>>10&7].CoerceTo(kind),
		}
		if b&(1<<13) != 0 {
			p.Lo = storage.NullValue(kind)
		}
		spec.Preds = append(spec.Preds, p)
	}
	if bits&(1<<40) != 0 {
		spec.Slots = []int{}
		for sl := 0; sl < 23; sl++ {
			if bits&(1<<uint(41+sl)) != 0 {
				spec.Slots = append(spec.Slots, sl)
			}
		}
	}
	return spec
}

// FuzzDecodeColumns feeds arbitrary payloads, row counts and specs to every
// codec's DecodeColumns, the one decode entry point. A hostile payload must
// come back as an error or a well-formed batch — never a panic — and a
// well-formed batch holds at most nrows rows of len(spec.Needed) values,
// each with its slot.
func FuzzDecodeColumns(f *testing.F) {
	s := codecSchema()
	_, decoders := fuzzSegments(f)
	f.Fuzz(func(t *testing.T, design uint8, payload []byte, nrows int, bits uint64) {
		c := decoders[int(design)%len(decoders)]
		spec := fuzzSpec(s, bits)
		dp, err := c.DecodeColumns(s, payload, nrows, spec)
		if err != nil {
			return
		}
		if len(dp.Rows) > nrows || len(dp.Slots) != len(dp.Rows) {
			t.Fatalf("%s: %d rows, %d slots from a %d-row page", c.Name(), len(dp.Rows), len(dp.Slots), nrows)
		}
		for i, r := range dp.Rows {
			if len(r) != len(spec.Needed) {
				t.Fatalf("%s: row %d has %d values, spec needs %d", c.Name(), i, len(r), len(spec.Needed))
			}
		}
	})
}
