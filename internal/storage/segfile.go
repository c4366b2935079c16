package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// SegmentFile is the on-disk form of a Segment: a header carrying the codec
// method, the per-column design vector, the codec state block, the page
// count and row count, a per-page directory (payload offset, length, row
// count, accounted bytes, CRC32), a header checksum, and then the raw page
// payloads. Pages are read back individually via ReadAt, so a buffer pool
// can fault in exactly the pages a query touches.
//
// Layout (all integers big-endian):
//
//	[0:8)    magic "CADBSEG2"
//	[8:12)   format version (2)
//	[12:16)  codec name length L
//	[16:16+L codec name
//	+0:2     column count C; per column: u8 name length | name | u8 method
//	+0:4     state length S | codec state block (the global dictionaries)
//	+0:4     page count N
//	+4:12    row count
//	then N directory entries of 24 bytes each:
//	         offset u64 | length u32 | rows u32 | accounted u32 | crc32 u32
//	+4       CRC32 (IEEE) of everything before it
//	then the page payloads, back to back at their directory offsets.
//
// Stateful codecs (GDICT, RLE and mixed per-column designs) record their
// method vector and state; stateless NONE/ROW/PAGE files carry C = 0 and
// S = 0. Version 1 ("CADBSEG1") is the same layout without the design and
// state blocks; it is no longer written, and OpenSegmentFile still reads it.
type SegmentFile struct {
	f         *os.File
	path      string
	codecName string
	rows      int64
	entries   []segPageEntry
	design    []SegColumnMethod // per-column method vector (stateful codecs)
	state     []byte            // codec state block (stateful codecs)
}

// SegColumnMethod is one entry of a CADBSEG2 design vector: a column name and
// its compression-method byte (the compress.Method value).
type SegColumnMethod struct {
	Name   string
	Method byte
}

type segPageEntry struct {
	offset    uint64
	length    uint32
	rows      uint32
	accounted uint32
	crc       uint32
}

var (
	segMagic1 = [8]byte{'C', 'A', 'D', 'B', 'S', 'E', 'G', '1'}
	segMagic2 = [8]byte{'C', 'A', 'D', 'B', 'S', 'E', 'G', '2'}
)

const segDirEntryLen = 24

// segDesign extracts the design vector and state block a segment file must
// record for its codec: nil for stateless codecs.
func segDesign(c PageCodec, s *Schema) ([]SegColumnMethod, []byte) {
	sc, ok := c.(StatefulCodec)
	if !ok {
		return nil, nil
	}
	ids := sc.ColumnMethodIDs(s)
	design := make([]SegColumnMethod, len(s.Columns))
	for i, col := range s.Columns {
		design[i] = SegColumnMethod{Name: col.Name, Method: ids[i]}
	}
	return design, sc.SegmentState()
}

// segHeader assembles the complete header of a segment file, directory and
// checksum included. The entries' offsets come in relative to the first
// payload byte and are rebased in place onto the end of the header.
func segHeader(name string, design []SegColumnMethod, state []byte, entries []segPageEntry, rows int64) ([]byte, error) {
	if len(name) > 255 {
		return nil, fmt.Errorf("storage: codec name %q too long", name)
	}
	if len(design) > 0xFFFF {
		return nil, fmt.Errorf("storage: design vector of %d columns", len(design))
	}
	h := append([]byte(nil), segMagic2[:]...)
	h = binary.BigEndian.AppendUint32(h, 2)
	h = binary.BigEndian.AppendUint32(h, uint32(len(name)))
	h = append(h, name...)
	h = binary.BigEndian.AppendUint16(h, uint16(len(design)))
	for _, cm := range design {
		if len(cm.Name) > 255 {
			return nil, fmt.Errorf("storage: column name %q too long", cm.Name)
		}
		h = append(h, byte(len(cm.Name)))
		h = append(h, cm.Name...)
		h = append(h, cm.Method)
	}
	h = binary.BigEndian.AppendUint32(h, uint32(len(state)))
	h = append(h, state...)
	h = binary.BigEndian.AppendUint32(h, uint32(len(entries)))
	h = binary.BigEndian.AppendUint64(h, uint64(rows))
	base := uint64(len(h) + segDirEntryLen*len(entries) + 4)
	for i := range entries {
		e := &entries[i]
		e.offset += base
		h = binary.BigEndian.AppendUint64(h, e.offset)
		h = binary.BigEndian.AppendUint32(h, e.length)
		h = binary.BigEndian.AppendUint32(h, e.rows)
		h = binary.BigEndian.AppendUint32(h, e.accounted)
		h = binary.BigEndian.AppendUint32(h, e.crc)
	}
	return binary.BigEndian.AppendUint32(h, crc32.ChecksumIEEE(h)), nil
}

// createSegFile writes a segment file at path (truncating any previous
// file): the header, then the payloads body writes, then one fsync. On
// failure the partial file is removed.
func createSegFile(path string, header []byte, body func(f *os.File) error) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(header); err == nil {
		err = body(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close() // best-effort cleanup; err is the story
		os.Remove(path)
		return nil, err
	}
	adviseRandom(f)
	return f, nil
}

// WriteSegmentFile writes the segment's pages to path (truncating any
// previous file) and returns an open handle for reads. The segment must
// still hold its payloads (i.e. not already be spilled).
func WriteSegmentFile(path string, seg *Segment) (*SegmentFile, error) {
	entries := make([]segPageEntry, len(seg.pages))
	var at uint64
	for i := range seg.pages {
		p := &seg.pages[i]
		if p.Payload == nil && p.Rows > 0 {
			return nil, fmt.Errorf("storage: page %d has no payload (segment already spilled?)", i)
		}
		entries[i] = segPageEntry{
			offset:    at,
			length:    uint32(len(p.Payload)),
			rows:      uint32(p.Rows),
			accounted: uint32(p.AccountedBytes),
			crc:       crc32.ChecksumIEEE(p.Payload),
		}
		at += uint64(len(p.Payload))
	}
	name := seg.Codec.Name()
	design, state := segDesign(seg.Codec, seg.Schema)
	header, err := segHeader(name, design, state, entries, seg.rows)
	if err != nil {
		return nil, err
	}
	f, err := createSegFile(path, header, func(f *os.File) error {
		for i := range seg.pages {
			if _, err := f.Write(seg.pages[i].Payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SegmentFile{f: f, path: path, codecName: name, rows: seg.rows, entries: entries, design: design, state: state}, nil
}

// OpenSegmentFile opens an existing segment file, validating the header
// checksum and the directory against the file size.
func OpenSegmentFile(path string) (*SegmentFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sf, err := readSegHeader(f, path)
	if err != nil {
		_ = f.Close() // best-effort cleanup; the header error is the story
		return nil, err
	}
	adviseRandom(f)
	return sf, nil
}

// readSegHeader parses the header of a version-1 or version-2 segment file.
// The variable-length fields force incremental reads; each read is checked
// against the file size before its buffer is allocated, so a hostile length
// fails instead of driving a large allocation. Every byte read accumulates
// into hdr so the trailing CRC covers the whole header.
func readSegHeader(f *os.File, path string) (*SegmentFile, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	var hdr []byte
	read := func(n int64) ([]byte, error) {
		at := int64(len(hdr))
		if n > size-at {
			return nil, fmt.Errorf("storage: %s: header field of %d bytes at %d overruns the %d-byte file", path, n, at, size)
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, at); err != nil {
			return nil, fmt.Errorf("storage: %s: short header: %w", path, err)
		}
		hdr = append(hdr, buf...)
		return buf, nil
	}
	b, err := read(16)
	if err != nil {
		return nil, err
	}
	v2 := [8]byte(b[:8]) == segMagic2
	if !v2 && [8]byte(b[:8]) != segMagic1 {
		return nil, fmt.Errorf("storage: %s: bad magic", path)
	}
	version := uint32(1)
	if v2 {
		version = 2
	}
	if v := binary.BigEndian.Uint32(b[8:12]); v != version {
		return nil, fmt.Errorf("storage: %s: unsupported version %d", path, v)
	}
	nameLen := int64(binary.BigEndian.Uint32(b[12:16]))
	if nameLen > 255 {
		return nil, fmt.Errorf("storage: %s: codec name length %d", path, nameLen)
	}
	if b, err = read(nameLen); err != nil {
		return nil, err
	}
	sf := &SegmentFile{f: f, path: path, codecName: string(b)}
	if v2 {
		if b, err = read(2); err != nil {
			return nil, err
		}
		for i := int(binary.BigEndian.Uint16(b)); i > 0; i-- {
			if b, err = read(1); err != nil {
				return nil, err
			}
			if b, err = read(int64(b[0]) + 1); err != nil {
				return nil, err
			}
			sf.design = append(sf.design, SegColumnMethod{Name: string(b[:len(b)-1]), Method: b[len(b)-1]})
		}
		if b, err = read(4); err != nil {
			return nil, err
		}
		if b, err = read(int64(binary.BigEndian.Uint32(b))); err != nil {
			return nil, err
		}
		if len(b) > 0 {
			sf.state = b
		}
	}
	if b, err = read(12); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(b[:4]))
	sf.rows = int64(binary.BigEndian.Uint64(b[4:]))
	dirAt := int64(len(hdr))
	if _, err = read(segDirEntryLen*n + 4); err != nil {
		return nil, err
	}
	body := hdr[:len(hdr)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(hdr[len(body):]) {
		return nil, fmt.Errorf("storage: %s: header checksum mismatch", path)
	}
	// Payloads sit back to back after the header (both versions' writers lay
	// them out so, and ReadPageSpan relies on it); anything else is corrupt.
	sf.entries = make([]segPageEntry, n)
	next := uint64(len(hdr))
	var rows int64
	for i := range sf.entries {
		e := body[dirAt+segDirEntryLen*int64(i):]
		sf.entries[i] = segPageEntry{
			offset:    binary.BigEndian.Uint64(e[0:8]),
			length:    binary.BigEndian.Uint32(e[8:12]),
			rows:      binary.BigEndian.Uint32(e[12:16]),
			accounted: binary.BigEndian.Uint32(e[16:20]),
			crc:       binary.BigEndian.Uint32(e[20:24]),
		}
		if sf.entries[i].offset != next {
			return nil, fmt.Errorf("storage: %s: page %d at offset %d, want %d", path, i, sf.entries[i].offset, next)
		}
		next += uint64(sf.entries[i].length)
		rows += int64(sf.entries[i].rows)
	}
	if next > uint64(size) {
		return nil, fmt.Errorf("storage: %s: directory addresses %d bytes of a %d-byte file", path, next, size)
	}
	if rows != sf.rows {
		return nil, fmt.Errorf("storage: %s: header says %d rows, directory holds %d", path, sf.rows, rows)
	}
	return sf, nil
}

// NumPages returns the page count.
func (sf *SegmentFile) NumPages() int { return len(sf.entries) }

// Rows returns the total row count.
func (sf *SegmentFile) Rows() int64 { return sf.rows }

// CodecName returns the codec method name recorded in the header.
func (sf *SegmentFile) CodecName() string { return sf.codecName }

// Design returns the per-column method vector recorded in the header (nil
// for stateless designs and version-1 files).
func (sf *SegmentFile) Design() []SegColumnMethod { return sf.design }

// State returns the codec state block recorded in the header (nil for
// stateless designs and version-1 files). Feed it to the codec's
// LoadSegmentState to decode the file's pages in a fresh process.
func (sf *SegmentFile) State() []byte { return sf.state }

// Path returns the file path.
func (sf *SegmentFile) Path() string { return sf.path }

// PageRows returns the row count of page i without reading it.
func (sf *SegmentFile) PageRows(i int) int { return int(sf.entries[i].rows) }

// PageAccountedBytes returns the accounted payload size of page i.
func (sf *SegmentFile) PageAccountedBytes(i int) int { return int(sf.entries[i].accounted) }

// PayloadBytes returns the total on-disk payload bytes across all pages —
// the working-set size a buffer pool is dimensioned against.
func (sf *SegmentFile) PayloadBytes() int64 {
	var n int64
	for i := range sf.entries {
		n += int64(sf.entries[i].length)
	}
	return n
}

// ReadPage reads page i's payload via ReadAt and verifies its checksum.
func (sf *SegmentFile) ReadPage(i int) ([]byte, error) {
	if i < 0 || i >= len(sf.entries) {
		return nil, fmt.Errorf("storage: %s: page %d of %d", sf.path, i, len(sf.entries))
	}
	e := sf.entries[i]
	buf := make([]byte, e.length)
	if e.length > 0 {
		if _, err := sf.f.ReadAt(buf, int64(e.offset)); err != nil {
			return nil, fmt.Errorf("storage: %s: page %d: %w", sf.path, i, err)
		}
	}
	if got := crc32.ChecksumIEEE(buf); got != e.crc {
		return nil, fmt.Errorf("storage: %s: page %d: checksum mismatch", sf.path, i)
	}
	return buf, nil
}

// ReadPageSpan reads pages [lo, hi) in one ReadAt over their contiguous file
// range and returns the per-page payloads, each checksum-verified and copied
// out of the span buffer (so a buffer pool admitting individual pages never
// retains the whole span). Page payloads are laid out back to back by the
// writers, which is what makes the single large read possible — coalescing is
// the point: one span read runs at sequential-disk bandwidth where hi-lo
// individual page reads would each pay a seek-sized latency.
func (sf *SegmentFile) ReadPageSpan(lo, hi int) ([][]byte, error) {
	if lo < 0 || hi > len(sf.entries) || lo >= hi {
		return nil, fmt.Errorf("storage: %s: page span [%d,%d) of %d", sf.path, lo, hi, len(sf.entries))
	}
	first, last := sf.entries[lo], sf.entries[hi-1]
	start := first.offset
	end := last.offset + uint64(last.length)
	buf := make([]byte, end-start)
	if len(buf) > 0 {
		if _, err := sf.f.ReadAt(buf, int64(start)); err != nil {
			return nil, fmt.Errorf("storage: %s: pages [%d,%d): %w", sf.path, lo, hi, err)
		}
	}
	out := make([][]byte, hi-lo)
	for i := lo; i < hi; i++ {
		e := sf.entries[i]
		rel := e.offset - start
		page := buf[rel : rel+uint64(e.length)]
		if got := crc32.ChecksumIEEE(page); got != e.crc {
			return nil, fmt.Errorf("storage: %s: page %d: checksum mismatch", sf.path, i)
		}
		out[i-lo] = append([]byte(nil), page...)
	}
	return out, nil
}

// Close closes the underlying file.
func (sf *SegmentFile) Close() error { return sf.f.Close() }

// Remove closes and deletes the file.
func (sf *SegmentFile) Remove() error {
	err := sf.f.Close()
	if rmErr := os.Remove(sf.path); err == nil {
		err = rmErr
	}
	return err
}
