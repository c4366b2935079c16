package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cadb/internal/bufferpool"
)

// plainCodec is the minimal row-major test codec (mirrors the NONE layout
// closely enough for round-trips without importing internal/compress, which
// would cycle).
type plainCodec struct{}

func (plainCodec) Name() string { return "TEST" }

func (plainCodec) EncodeRows(s *Schema, rows []Row) ([]EncodedPage, error) {
	groups, _ := PackRows(s, rows)
	out := make([]EncodedPage, 0, len(groups))
	for _, g := range groups {
		var payload []byte
		for _, r := range rows[g.Start:g.End] {
			payload = EncodeRow(s, r, payload)
		}
		out = append(out, EncodedPage{
			Payload:        payload,
			Rows:           g.End - g.Start,
			AccountedBytes: len(payload) + SlotSize*(g.End-g.Start),
		})
	}
	return out, nil
}

func (plainCodec) DecodeColumns(s *Schema, payload []byte, nrows int, spec *DecodeSpec) (*DecodedPage, error) {
	full := make([]Row, 0, nrows)
	for at := 0; len(full) < nrows; {
		r, n, err := DecodeRow(s, payload[at:])
		if err != nil {
			return nil, err
		}
		full = append(full, r)
		at += n
	}
	return FallbackDecodeColumns(s, full, spec), nil
}

// FallbackDecodeColumns implements DecodeColumns on top of a full page
// decode: the slot filter and predicates are applied after the fact, and the
// counters charge the full decode (every row, every column).
func FallbackDecodeColumns(s *Schema, full []Row, spec *DecodeSpec) *DecodedPage {
	// A full decode materializes every row and touches every column payload
	// once per page.
	out := &DecodedPage{
		TuplesDecoded:  int64(len(full)),
		ColumnsDecoded: int64(len(s.Columns)),
	}
	si := 0
	for slot, r := range full {
		if spec.Slots != nil {
			for si < len(spec.Slots) && spec.Slots[si] < slot {
				si++
			}
			if si >= len(spec.Slots) || spec.Slots[si] != slot {
				continue
			}
		}
		ok := true
		for _, p := range spec.Preds {
			if !p.Matches(r[p.Col]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		pr := make(Row, len(spec.Needed))
		for j, ci := range spec.Needed {
			pr[j] = r[ci]
		}
		out.Rows = append(out.Rows, pr)
		out.Slots = append(out.Slots, slot)
	}
	return out
}

func testSegment(t *testing.T, nrows int) (*Schema, []Row, *Segment) {
	t.Helper()
	s := NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindString, FixedWidth: 40},
		Column{Name: "val", Kind: KindFloat},
	)
	rows := make([]Row, nrows)
	for i := range rows {
		rows[i] = Row{IntVal(int64(i)), StringVal("row-padding-padding-padding"), FloatVal(float64(i) / 3)}
	}
	seg, err := BuildSegment(s, rows, plainCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return s, rows, seg
}

// TestSegmentFileRoundTrip spills a segment, re-opens the file cold, and
// checks header metadata and every page payload round-trip exactly.
func TestSegmentFileRoundTrip(t *testing.T) {
	_, rows, seg := testSegment(t, 2000)
	path := filepath.Join(t.TempDir(), "seg.cadb")
	sf, err := WriteSegmentFile(path, seg)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	re, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != seg.NumPages() || re.Rows() != seg.Rows() || re.CodecName() != "TEST" {
		t.Fatalf("header mismatch: %d pages %d rows codec %q", re.NumPages(), re.Rows(), re.CodecName())
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(raw, []byte("CADBSEG2")) {
		t.Fatalf("stateless segment file does not start with CADBSEG2 (err %v)", err)
	}
	if re.Design() != nil || re.State() != nil {
		t.Fatalf("stateless file reports design/state (%d cols, %d state bytes)", len(re.Design()), len(re.State()))
	}
	if re.PayloadBytes() != seg.DiskBytes() {
		t.Fatalf("payload bytes %d, segment disk bytes %d", re.PayloadBytes(), seg.DiskBytes())
	}
	var decoded int
	for i := 0; i < re.NumPages(); i++ {
		payload, err := re.ReadPage(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := seg.Codec.DecodeColumns(seg.Schema, payload, re.PageRows(i), &DecodeSpec{Needed: seg.Schema.AllOrdinals()})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got.Rows {
			if r[0].Int != rows[decoded][0].Int {
				t.Fatalf("row %d: got id %d", decoded, r[0].Int)
			}
			decoded++
		}
	}
	if decoded != len(rows) {
		t.Fatalf("decoded %d of %d rows", decoded, len(rows))
	}
}

// TestSegmentFileDetectsCorruption flips one payload byte on disk and checks
// the page read fails its checksum (and a header flip fails open).
func TestSegmentFileDetectsCorruption(t *testing.T) {
	_, _, seg := testSegment(t, 500)
	path := filepath.Join(t.TempDir(), "seg.cadb")
	sf, err := WriteSegmentFile(path, seg)
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last payload byte.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatal(err) // header is intact
	}
	if _, err := re.ReadPage(re.NumPages() - 1); err == nil {
		t.Fatal("corrupted page passed its checksum")
	}
	re.Close()

	// Corrupt the header (codec name byte).
	corrupt = append([]byte(nil), raw...)
	corrupt[17] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentFile(path); err == nil {
		t.Fatal("corrupted header passed its checksum")
	}
}

// hostileHeader builds a version-1 header for codec "TEST" claiming n pages
// and no rows, with a CRC over the fixed fields as if the directory were
// empty: 36 bytes that promise a 24n-byte directory the file does not hold.
func hostileHeader(n uint32) []byte {
	h := []byte("CADBSEG1")
	h = binary.BigEndian.AppendUint32(h, 1)
	h = binary.BigEndian.AppendUint32(h, 4)
	h = append(h, "TEST"...)
	h = binary.BigEndian.AppendUint32(h, n)
	h = binary.BigEndian.AppendUint64(h, 0)
	return binary.BigEndian.AppendUint32(h, crc32.ChecksumIEEE(h))
}

// TestOpenSegmentFileHostileHeaderBoundsAllocation pins the header bounds
// check: a page count, state length or directory entry the file cannot hold
// fails OpenSegmentFile before any buffer is sized from it.
func TestOpenSegmentFileHostileHeaderBoundsAllocation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hostile.cadb")
	if err := os.WriteFile(path, hostileHeader(1<<22), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sf, err := OpenSegmentFile(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		sf.Close()
		t.Fatal("a header claiming 2^22 pages in a 36-byte file opened")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("opening the hostile header allocated %d bytes", grew)
	}

	// A valid empty header opens; the same bytes with a v2 state length or a
	// directory entry pointing past the end of the file do not.
	if err := os.WriteFile(path, hostileHeader(0), 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err = OpenSegmentFile(path)
	if err != nil {
		t.Fatalf("empty v1 header: %v", err)
	}
	sf.Close()
	_, _, seg := testSegment(t, 300)
	good := filepath.Join(dir, "good.cadb")
	if sf, err = WriteSegmentFile(good, seg); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	stateAt := 16 + len("TEST") + 2 // zero-column design vector
	dirAt := stateAt + 4 + 12
	for _, c := range []struct {
		name  string
		patch func(h []byte)
	}{
		{"state length", func(h []byte) { binary.BigEndian.PutUint32(h[stateAt:], 1<<30) }},
		{"page length", func(h []byte) { binary.BigEndian.PutUint32(h[dirAt+8:], 1<<31) }},
		{"page offset", func(h []byte) { binary.BigEndian.PutUint64(h[dirAt:], 1<<40) }},
		{"row count", func(h []byte) { binary.BigEndian.PutUint64(h[stateAt+8:], 1<<40) }},
	} {
		bad := append([]byte(nil), raw...)
		c.patch(bad)
		crcAt := dirAt + 24*seg.NumPages()
		binary.BigEndian.PutUint32(bad[crcAt:], crc32.ChecksumIEEE(bad[:crcAt]))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if sf, err := OpenSegmentFile(path); err == nil {
			sf.Close()
			t.Errorf("%s: a hostile header opened", c.name)
		}
	}
}

// TestSpillAndFetch spills a segment through a pool and checks decode
// results are unchanged, payloads are released from memory, pool stats are
// counted per fetch, and CloseBacking turns later fetches into errors.
func TestSpillAndFetch(t *testing.T) {
	_, rows, seg := testSegment(t, 1500)
	want, err := seg.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	pool := bufferpool.New(1 << 20)
	if err := seg.Spill(filepath.Join(t.TempDir(), "seg.cadb"), pool); err != nil {
		t.Fatal(err)
	}
	if !seg.Backed() {
		t.Fatal("segment not backed after spill")
	}
	for i := 0; i < seg.NumPages(); i++ {
		if seg.Page(i).Payload != nil {
			t.Fatalf("page %d still holds its payload after spill", i)
		}
	}
	var io IOStats
	var got []Row
	for i := 0; i < seg.NumPages(); i++ {
		payload, release, err := seg.FetchPage(i, &io)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := seg.Codec.DecodeColumns(seg.Schema, payload, seg.PageRows(i), &DecodeSpec{Needed: seg.Schema.AllOrdinals()})
		release()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dp.Rows...)
	}
	if len(got) != len(want) || len(got) != len(rows) {
		t.Fatalf("scan through pool returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0].Int != want[i][0].Int {
			t.Fatalf("row %d differs after spill", i)
		}
	}
	if io.PoolMisses != int64(seg.NumPages()) || io.PoolHits != 0 {
		t.Fatalf("cold scan: %d misses %d hits, want %d/0", io.PoolMisses, io.PoolHits, seg.NumPages())
	}
	if io.BytesRead != seg.DiskBytes() {
		t.Fatalf("cold scan read %d bytes, want %d", io.BytesRead, seg.DiskBytes())
	}
	// Second scan: everything fits, so all hits.
	io = IOStats{}
	for i := 0; i < seg.NumPages(); i++ {
		_, release, err := seg.FetchPage(i, &io)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if io.PoolHits != int64(seg.NumPages()) || io.PoolMisses != 0 {
		t.Fatalf("warm scan: %d hits %d misses", io.PoolHits, io.PoolMisses)
	}

	seg.CloseBacking()
	if _, _, err := seg.FetchPage(0, nil); err == nil {
		t.Fatal("fetch from a closed backing should fail (stale-page guard)")
	}
	if pool.Bytes() != 0 {
		t.Fatalf("pool still holds %d bytes after CloseBacking", pool.Bytes())
	}
}

// FuzzOpenSegmentFile writes arbitrary bytes to a file and opens it as a
// segment file, the one header parser. A hostile file must come back as an
// error or a well-formed handle — never a panic — and every page a
// well-formed handle lists lies inside the file and sums to its row count.
func FuzzOpenSegmentFile(f *testing.F) {
	f.Add(hostileHeader(1 << 22))
	f.Add(hostileHeader(0))
	path := filepath.Join(f.TempDir(), "fuzz.cadb")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := OpenSegmentFile(path)
		if err != nil {
			return
		}
		defer sf.Close()
		if sf.PayloadBytes() > int64(len(raw)) {
			t.Fatalf("%d payload bytes listed in a %d-byte file", sf.PayloadBytes(), len(raw))
		}
		var rows int64
		for i := 0; i < sf.NumPages(); i++ {
			rows += int64(sf.PageRows(i))
			if _, err := sf.ReadPage(i); err != nil {
				continue // a payload failing its checksum is an error, not a panic
			}
		}
		if rows != sf.Rows() {
			t.Fatalf("pages hold %d rows, header says %d", rows, sf.Rows())
		}
		if sf.NumPages() > 0 {
			_, _ = sf.ReadPageSpan(0, sf.NumPages())
		}
	})
}
