package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"cadb/internal/storage"
)

// This file holds the materializing page codecs: the encode halves of the
// compression methods whose sizes SizeRows models (their one decode entry
// point, DecodeColumns, is in decode_columns.go). NONE and ROW produce
// byte totals identical to their size model by construction. PAGE shares the
// model's dictionary policy (suffixes occurring at least twice) but diverges
// from it in two expected ways: it packs pages by compressed fit (the model
// scopes dictionaries to the *uncompressed* PackRows groups, so group
// boundaries — and hence dictionary/prefix scopes — differ), and it pays
// real-format overheads the model omits (row counts, dictionary bitmaps).
// That combined gap is what the ext-measured experiment reports.
//
// Value round-trips are exact for ints, dates, floats (bit-level) and
// variable-width strings. CHAR(n) columns are normalized the same way the
// uncompressed row codec is: values are truncated to n bytes and trailing
// blanks are stripped on decode.

// Codec returns the materializing page codec for the method. NONE/ROW/PAGE
// are stateless singletons; GlobalDict and RLE return a fresh per-column
// design codec per call, because GDICT carries segment-level dictionary
// state — a codec instance must never be shared across segment builds.
func Codec(m Method) storage.PageCodec {
	switch m {
	case None:
		return noneCodec{}
	case Row:
		return rowCodec{}
	case Page:
		return pageCodec{}
	case GlobalDict, RLE:
		return newColumnCodec(m, nil)
	}
	return nil
}

// HasCodec reports whether the method can be materialized into segments.
// Every recommendable method now materializes.
func HasCodec(m Method) bool { return Codec(m) != nil }

// ---------------------------------------------------------------------------
// Shared length-prefix and value helpers

// appendLenPrefix appends the length descriptor lenPrefixSize models: one
// byte below 0x80, two bytes (0x80|hi, lo) up to 0x7EFF. Longer values —
// possible only inside overflow runs — escape to 0xFF plus a 4-byte length,
// a real-format cost the size model does not charge.
func appendLenPrefix(dst []byte, n int) []byte {
	switch {
	case n < 0x80:
		return append(dst, byte(n))
	case n < 0x7F00:
		return append(dst, 0x80|byte(n>>8), byte(n))
	default:
		return append(dst, 0xFF, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

// readLenPrefix decodes appendLenPrefix, returning the length and the bytes
// consumed.
func readLenPrefix(src []byte) (int, int, error) {
	if len(src) == 0 {
		return 0, 0, fmt.Errorf("compress: truncated length prefix")
	}
	b0 := src[0]
	switch {
	case b0 < 0x80:
		return int(b0), 1, nil
	case b0 != 0xFF:
		if len(src) < 2 {
			return 0, 0, fmt.Errorf("compress: truncated length prefix")
		}
		return int(b0&0x7F)<<8 | int(src[1]), 2, nil
	default:
		if len(src) < 5 {
			return 0, 0, fmt.Errorf("compress: truncated length prefix")
		}
		return int(binary.BigEndian.Uint32(src[1:5])), 5, nil
	}
}

// decodeValueBytes is the inverse of valueBytes: reconstruct a value from its
// minimal encoding.
func decodeValueBytes(c storage.Column, b []byte) (storage.Value, error) {
	switch c.Kind {
	case storage.KindInt, storage.KindDate:
		if len(b) > 8 {
			return storage.Value{}, fmt.Errorf("compress: %d-byte integer", len(b))
		}
		var u uint64
		for _, x := range b {
			u = u<<8 | uint64(x)
		}
		v := int64(u>>1) ^ -int64(u&1) // un-zigzag
		return storage.Value{Kind: c.Kind, Int: v}, nil
	case storage.KindFloat:
		if len(b) > 8 {
			return storage.Value{}, fmt.Errorf("compress: %d-byte float", len(b))
		}
		var buf [8]byte
		copy(buf[:], b)
		return storage.FloatVal(math.Float64frombits(binary.BigEndian.Uint64(buf[:]))), nil
	case storage.KindString:
		return storage.StringVal(string(b)), nil
	}
	return storage.Value{}, fmt.Errorf("compress: unknown kind %v", c.Kind)
}

// ---------------------------------------------------------------------------
// NONE: the plain slotted-page row format

type noneCodec struct{}

func (noneCodec) Name() string { return None.String() }

func (noneCodec) EncodeRows(s *storage.Schema, rows []storage.Row) ([]storage.EncodedPage, error) {
	groups, _ := storage.PackRows(s, rows)
	out := make([]storage.EncodedPage, 0, len(groups))
	for _, g := range groups {
		var payload []byte
		for _, r := range rows[g.Start:g.End] {
			payload = storage.EncodeRow(s, r, payload)
		}
		out = append(out, storage.EncodedPage{
			Payload:        payload,
			Rows:           g.End - g.Start,
			AccountedBytes: g.Bytes,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// ROW: null/blank suppression with per-value minimal encodings

type rowCodec struct{}

func (rowCodec) Name() string { return Row.String() }

// encodeRowCompressed appends one ROW-compressed row: null bitmap, then a
// length-prefixed minimal encoding per non-null column — the exact layout
// sizeRowCompressed charges for.
func encodeRowCompressed(s *storage.Schema, r storage.Row, dst []byte) []byte {
	bitmapLen := (len(s.Columns) + 7) / 8
	bitmapAt := len(dst)
	for i := 0; i < bitmapLen; i++ {
		dst = append(dst, 0)
	}
	var scratch [64]byte
	for i, c := range s.Columns {
		v := r[i]
		if v.Null {
			dst[bitmapAt+i/8] |= 1 << (uint(i) % 8)
			continue
		}
		b := valueBytes(c, v, scratch[:0])
		dst = appendLenPrefix(dst, len(b))
		dst = append(dst, b...)
	}
	return dst
}

func (rowCodec) EncodeRows(s *storage.Schema, rows []storage.Row) ([]storage.EncodedPage, error) {
	var out []storage.EncodedPage
	var payload []byte
	inPage, used := 0, 0
	flush := func() {
		if inPage > 0 {
			p := make([]byte, len(payload))
			copy(p, payload)
			out = append(out, storage.EncodedPage{Payload: p, Rows: inPage, AccountedBytes: used})
			payload = payload[:0]
			inPage, used = 0, 0
		}
	}
	for _, r := range rows {
		at := len(payload)
		payload = encodeRowCompressed(s, r, payload)
		sz := len(payload) - at + storage.SlotSize
		if sz > storage.UsablePageBytes {
			// Oversized row: give it an overflow run of its own.
			enc := append([]byte(nil), payload[at:]...)
			payload = payload[:at]
			flush()
			out = append(out, storage.EncodedPage{Payload: enc, Rows: 1, AccountedBytes: sz})
			continue
		}
		if used+sz > storage.UsablePageBytes && used > 0 {
			enc := append([]byte(nil), payload[at:]...)
			payload = payload[:at]
			flush()
			payload = append(payload, enc...)
		}
		inPage++
		used += sz
	}
	flush()
	return out, nil
}

// ---------------------------------------------------------------------------
// PAGE: per-page column prefix + local dictionary, column-major layout

type pageCodec struct{}

func (pageCodec) Name() string { return Page.String() }

func (pageCodec) EncodeRows(s *storage.Schema, rows []storage.Row) ([]storage.EncodedPage, error) {
	// Pages are packed by compressed fit, the way a bulk load or index
	// rebuild fills page-compressed leaves: each page takes as many rows as
	// its compressed form can hold (so the page-local dictionary scope is
	// the physical page). Row counts per page are found by doubling then
	// binary search — O(log rows-per-page) trial encodes per page.
	var out []storage.EncodedPage
	n := len(rows)
	fits := func(payload []byte, k int) bool {
		return len(payload)+k*storage.SlotSize <= storage.UsablePageBytes
	}
	start := 0
	for start < n {
		payload, err := encodePageGroup(s, rows[start:start+1])
		if err != nil {
			return nil, err
		}
		if !fits(payload, 1) {
			// A single oversized row becomes an overflow run.
			out = append(out, storage.EncodedPage{
				Payload:        payload,
				Rows:           1,
				AccountedBytes: len(payload) + storage.SlotSize,
			})
			start++
			continue
		}
		// Grow the row count until the page overflows (or rows run out).
		good, goodPayload := 1, payload
		bad := -1
		for k := 2; start+good < n && bad < 0; k *= 2 {
			try := k
			if start+try > n {
				try = n - start
			}
			p, err := encodePageGroup(s, rows[start:start+try])
			if err != nil {
				return nil, err
			}
			if fits(p, try) {
				good, goodPayload = try, p
				if start+try == n {
					break
				}
			} else {
				bad = try
			}
		}
		// Binary search the largest fitting count in (good, bad).
		for bad >= 0 && bad-good > 1 {
			mid := (good + bad) / 2
			p, err := encodePageGroup(s, rows[start:start+mid])
			if err != nil {
				return nil, err
			}
			if fits(p, mid) {
				good, goodPayload = mid, p
			} else {
				bad = mid
			}
		}
		out = append(out, storage.EncodedPage{
			Payload:        goodPayload,
			Rows:           good,
			AccountedBytes: len(goodPayload) + good*storage.SlotSize,
		})
		start += good
	}
	return out, nil
}

// encodePageGroup encodes one page group column-major:
//
//	[u16 rowCount] then per column:
//	[null bitmap][prefix][u16 dictCount][dict entries][dict bitmap][values]
//
// where values are stored in row order as dictionary codes (for suffixes
// occurring at least twice, per the size model's policy) or length-prefixed
// literal suffixes.
func encodePageGroup(s *storage.Schema, rows []storage.Row) ([]byte, error) {
	n := len(rows)
	if n > 0xFFFF {
		return nil, fmt.Errorf("compress: page group of %d rows", n)
	}
	payload := make([]byte, 2, 512)
	binary.BigEndian.PutUint16(payload[:2], uint16(n))
	for ci, c := range s.Columns {
		var err error
		payload, err = appendPageColumn(payload, c, rows, ci)
		if err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// appendPageColumn appends one PAGE column section — null bitmap, prefix,
// local dictionary, dictionary bitmap, values — exactly as encodePageGroup
// has always laid it out. PAGE columns inside per-column design pages reuse
// it, so parsePageColumn reads both.
func appendPageColumn(payload []byte, c storage.Column, rows []storage.Row, ci int) ([]byte, error) {
	n := len(rows)
	bitmapLen := (n + 7) / 8
	scratch := make([]byte, 0, 64)
	// Null bitmap (bit j set = row j is NULL) and encoded values.
	nullAt := len(payload)
	for i := 0; i < bitmapLen; i++ {
		payload = append(payload, 0)
	}
	vals := make([]string, n)
	for j, r := range rows {
		if r[ci].Null {
			payload[nullAt+j/8] |= 1 << (uint(j) % 8)
			continue
		}
		scratch = valueBytes(c, r[ci], scratch[:0])
		vals[j] = string(scratch)
	}
	// Common prefix across non-null values.
	prefix := ""
	first := true
	for j := range vals {
		if rows[j][ci].Null {
			continue
		}
		if first {
			prefix, first = vals[j], false
			continue
		}
		prefix = commonPrefix(prefix, vals[j])
		if prefix == "" {
			break
		}
	}
	payload = appendLenPrefix(payload, len(prefix))
	payload = append(payload, prefix...)
	// Local dictionary: suffixes occurring at least twice, codes assigned
	// in first-occurrence order.
	counts := make(map[string]int, n)
	for j := range vals {
		if !rows[j][ci].Null {
			counts[vals[j][len(prefix):]]++
		}
	}
	codes := make(map[string]int)
	var dict []string
	for j := range vals {
		if rows[j][ci].Null {
			continue
		}
		suffix := vals[j][len(prefix):]
		if counts[suffix] >= 2 {
			if _, ok := codes[suffix]; !ok {
				codes[suffix] = len(dict)
				dict = append(dict, suffix)
			}
		}
	}
	if len(dict) > 0xFFFF {
		return nil, fmt.Errorf("compress: page dictionary of %d entries", len(dict))
	}
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(dict)))
	payload = append(payload, u16[:]...)
	for _, suffix := range dict {
		payload = appendLenPrefix(payload, len(suffix))
		payload = append(payload, suffix...)
	}
	codeSize := 1
	if len(dict) > 255 {
		codeSize = 2
	}
	// Dictionary bitmap (bit j set = row j stored as a code), then the
	// values themselves.
	dictAt := len(payload)
	for i := 0; i < bitmapLen; i++ {
		payload = append(payload, 0)
	}
	for j := range vals {
		if rows[j][ci].Null {
			continue
		}
		suffix := vals[j][len(prefix):]
		if code, ok := codes[suffix]; ok {
			payload[dictAt+j/8] |= 1 << (uint(j) % 8)
			if codeSize == 2 {
				payload = append(payload, byte(code>>8))
			}
			payload = append(payload, byte(code))
		} else {
			payload = appendLenPrefix(payload, len(suffix))
			payload = append(payload, suffix...)
		}
	}
	return payload, nil
}
