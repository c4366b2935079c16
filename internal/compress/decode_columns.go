package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"cadb/internal/storage"
)

// This file implements DecodeColumns, the one decode entry point of the
// NONE, ROW and PAGE codecs. NONE and ROW are row-major formats: a value
// cannot be located without walking every column of every preceding row, so
// a selective decode still scans every column's bytes of every row —
// TuplesDecoded and ColumnsDecoded charge the full page — but values outside
// spec.Needed and the predicate columns are skipped over instead of
// materialized.
// PAGE is column-major with per-page metadata, which enables three shortcuts,
// in increasing cost:
//
//  1. null bitmaps and the common-prefix header can decide a predicate for
//     the whole page without touching the values region;
//  2. predicates are evaluated once per local-dictionary entry and row
//     codes are tested against the matching-code set, instead of decoding
//     every row;
//  3. only the spec.Needed columns of the surviving rows are materialized,
//     and dictionary entries decode at most once per page.

// decodeMask marks the columns a selective row-major decode must materialize:
// the projected columns plus every predicate column.
func decodeMask(s *storage.Schema, spec *storage.DecodeSpec) []bool {
	use := make([]bool, len(s.Columns))
	for _, i := range spec.Needed {
		use[i] = true
	}
	for _, p := range spec.Preds {
		use[p.Col] = true
	}
	return use
}

// rowMajorEmit holds the shared commit path of the NONE and ROW streaming
// decoders: slot filtering, predicate evaluation against the materialized
// columns, and slab-backed projection onto spec.Needed.
type rowMajorEmit struct {
	spec *storage.DecodeSpec
	out  *storage.DecodedPage
	slab []storage.Value
	used int
	si   int // cursor into spec.Slots
}

// checkRowMajorRows rejects a row count a row-major payload cannot hold —
// every row starts with its null bitmap — before anything is sized from it.
func checkRowMajorRows(nrows, bitmapLen int, payload []byte) error {
	if nrows < 0 || (bitmapLen > 0 && nrows > len(payload)/bitmapLen) {
		return fmt.Errorf("compress: %d rows cannot fit a %d-byte page", nrows, len(payload))
	}
	return nil
}

func newRowMajorEmit(s *storage.Schema, spec *storage.DecodeSpec, nrows int, out *storage.DecodedPage) *rowMajorEmit {
	return &rowMajorEmit{
		spec: spec,
		out:  out,
		slab: make([]storage.Value, nrows*len(spec.Needed)),
	}
}

// wanted reports whether the slot passes spec.Slots. Must be called with
// strictly increasing slot numbers.
func (e *rowMajorEmit) wanted(slot int) bool {
	if e.spec.Slots == nil {
		return true
	}
	for e.si < len(e.spec.Slots) && e.spec.Slots[e.si] < slot {
		e.si++
	}
	return e.si < len(e.spec.Slots) && e.spec.Slots[e.si] == slot
}

// emit applies the predicates to the materialized columns of tmp and, when
// they pass, appends the projection of tmp onto spec.Needed.
func (e *rowMajorEmit) emit(slot int, tmp storage.Row) {
	for _, p := range e.spec.Preds {
		if !p.Matches(tmp[p.Col]) {
			return
		}
	}
	n := len(e.spec.Needed)
	row := e.slab[e.used : e.used+n : e.used+n]
	for j, ci := range e.spec.Needed {
		row[j] = tmp[ci]
	}
	e.used += n
	e.out.Rows = append(e.out.Rows, row)
	e.out.Slots = append(e.out.Slots, slot)
}

func (noneCodec) DecodeColumns(s *storage.Schema, payload []byte, nrows int, spec *storage.DecodeSpec) (*storage.DecodedPage, error) {
	// A row-major decode walks every row and every column's bytes; the
	// counters charge the full page.
	out := &storage.DecodedPage{
		TuplesDecoded:  int64(nrows),
		ColumnsDecoded: int64(len(s.Columns)),
	}
	bitmapLen := (len(s.Columns) + 7) / 8
	if err := checkRowMajorRows(nrows, bitmapLen, payload); err != nil {
		return nil, err
	}
	use := decodeMask(s, spec)
	tmp := make(storage.Row, len(s.Columns))
	e := newRowMajorEmit(s, spec, nrows, out)
	for slot := 0; slot < nrows; slot++ {
		if len(payload) < bitmapLen {
			return nil, fmt.Errorf("compress: short NONE page")
		}
		bitmap := payload[:bitmapLen]
		pos := bitmapLen
		wanted := e.wanted(slot)
		for i := range s.Columns {
			c := &s.Columns[i]
			null := bitmap[i/8]&(1<<(uint(i)%8)) != 0
			decode := wanted && use[i]
			switch c.Kind {
			case storage.KindInt, storage.KindFloat:
				if len(payload) < pos+8 {
					return nil, fmt.Errorf("compress: short NONE row at col %d", i)
				}
				if decode && !null {
					u := binary.BigEndian.Uint64(payload[pos : pos+8])
					if c.Kind == storage.KindInt {
						tmp[i] = storage.Value{Kind: storage.KindInt, Int: int64(u)}
					} else {
						tmp[i] = storage.Value{Kind: storage.KindFloat, Float: math.Float64frombits(u)}
					}
				}
				pos += 8
			case storage.KindDate:
				if len(payload) < pos+4 {
					return nil, fmt.Errorf("compress: short NONE row at col %d", i)
				}
				if decode && !null {
					u := binary.BigEndian.Uint32(payload[pos : pos+4])
					tmp[i] = storage.Value{Kind: storage.KindDate, Int: int64(int32(u))}
				}
				pos += 4
			case storage.KindString:
				if c.FixedWidth > 0 {
					if len(payload) < pos+c.FixedWidth {
						return nil, fmt.Errorf("compress: short NONE row at col %d", i)
					}
					if decode && !null {
						raw := payload[pos : pos+c.FixedWidth]
						end := len(raw)
						for end > 0 && raw[end-1] == ' ' {
							end--
						}
						tmp[i] = storage.Value{Kind: storage.KindString, Str: string(raw[:end])}
					}
					pos += c.FixedWidth
				} else {
					if len(payload) < pos+2 {
						return nil, fmt.Errorf("compress: short NONE row at col %d", i)
					}
					n := int(binary.BigEndian.Uint16(payload[pos : pos+2]))
					pos += 2
					if len(payload) < pos+n {
						return nil, fmt.Errorf("compress: short NONE row at col %d", i)
					}
					if decode && !null {
						tmp[i] = storage.Value{Kind: storage.KindString, Str: string(payload[pos : pos+n])}
					}
					pos += n
				}
			}
			if decode && null {
				tmp[i] = storage.NullValue(c.Kind)
			}
		}
		payload = payload[pos:]
		if wanted {
			e.emit(slot, tmp)
		}
	}
	return out, nil
}

func (rowCodec) DecodeColumns(s *storage.Schema, payload []byte, nrows int, spec *storage.DecodeSpec) (*storage.DecodedPage, error) {
	out := &storage.DecodedPage{
		TuplesDecoded:  int64(nrows),
		ColumnsDecoded: int64(len(s.Columns)),
	}
	bitmapLen := (len(s.Columns) + 7) / 8
	if err := checkRowMajorRows(nrows, bitmapLen, payload); err != nil {
		return nil, err
	}
	use := decodeMask(s, spec)
	tmp := make(storage.Row, len(s.Columns))
	e := newRowMajorEmit(s, spec, nrows, out)
	for slot := 0; slot < nrows; slot++ {
		if len(payload) < bitmapLen {
			return nil, fmt.Errorf("compress: short ROW page")
		}
		bitmap := payload[:bitmapLen]
		payload = payload[bitmapLen:]
		wanted := e.wanted(slot)
		for i := range s.Columns {
			c := &s.Columns[i]
			if bitmap[i/8]&(1<<(uint(i)%8)) != 0 {
				if wanted && use[i] {
					tmp[i] = storage.NullValue(c.Kind)
				}
				continue
			}
			n, adv, err := readLenPrefix(payload)
			if err != nil {
				return nil, err
			}
			payload = payload[adv:]
			if len(payload) < n {
				return nil, fmt.Errorf("compress: short ROW value")
			}
			if wanted && use[i] {
				v, err := decodeValueBytes(*c, payload[:n])
				if err != nil {
					return nil, err
				}
				tmp[i] = v
			}
			payload = payload[n:]
		}
		if wanted {
			e.emit(slot, tmp)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// PAGE: selective decode over the column-major layout

// pageColumn is one parsed column section of a PAGE payload. All slices
// alias the payload; nothing is decoded yet.
type pageColumn struct {
	nulls    []byte   // null bitmap (bit j = row j is NULL)
	prefix   []byte   // common prefix of the encoded non-null values
	dict     [][]byte // local dictionary suffixes
	codeSize int      // 1 or 2 bytes per dictionary code
	coded    []byte   // dictionary bitmap (bit j = row j stored as a code)
	values   []byte   // the row-order values region (codes and literals)
}

func (col *pageColumn) isNull(j int) bool  { return col.nulls[j/8]&(1<<(uint(j)%8)) != 0 }
func (col *pageColumn) isCoded(j int) bool { return col.coded[j/8]&(1<<(uint(j)%8)) != 0 }

// parsePageColumn splits one column section off the payload, walking the
// values region only to find its end (no value decoding).
func parsePageColumn(payload []byte, n, bitmapLen int) (pageColumn, []byte, error) {
	var col pageColumn
	if len(payload) < bitmapLen {
		return col, nil, fmt.Errorf("compress: short PAGE null bitmap")
	}
	col.nulls = payload[:bitmapLen]
	payload = payload[bitmapLen:]
	pn, adv, err := readLenPrefix(payload)
	if err != nil {
		return col, nil, err
	}
	payload = payload[adv:]
	if len(payload) < pn {
		return col, nil, fmt.Errorf("compress: short PAGE prefix")
	}
	col.prefix = payload[:pn]
	payload = payload[pn:]
	if len(payload) < 2 {
		return col, nil, fmt.Errorf("compress: short PAGE dictionary count")
	}
	dictCount := int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	col.dict = make([][]byte, dictCount)
	for i := range col.dict {
		dn, adv, err := readLenPrefix(payload)
		if err != nil {
			return col, nil, err
		}
		payload = payload[adv:]
		if len(payload) < dn {
			return col, nil, fmt.Errorf("compress: short PAGE dictionary entry")
		}
		col.dict[i] = payload[:dn]
		payload = payload[dn:]
	}
	col.codeSize = 1
	if dictCount > 255 {
		col.codeSize = 2
	}
	if len(payload) < bitmapLen {
		return col, nil, fmt.Errorf("compress: short PAGE dictionary bitmap")
	}
	col.coded = payload[:bitmapLen]
	payload = payload[bitmapLen:]
	at := 0
	for j := 0; j < n; j++ {
		if col.isNull(j) {
			continue
		}
		if col.isCoded(j) {
			if len(payload) < at+col.codeSize {
				return col, nil, fmt.Errorf("compress: short PAGE code")
			}
			at += col.codeSize
			continue
		}
		ln, adv, err := readLenPrefix(payload[at:])
		if err != nil {
			return col, nil, err
		}
		if len(payload) < at+adv+ln {
			return col, nil, fmt.Errorf("compress: short PAGE literal")
		}
		at += adv + ln
	}
	col.values = payload[:at]
	return col, payload[at:], nil
}

// visitValues walks the values region in row order, calling visit once per
// non-null row with either a dictionary code (code >= 0, lit nil) or the
// literal suffix bytes (code < 0).
func (col *pageColumn) visitValues(n int, visit func(j, code int, lit []byte) error) error {
	vals := col.values
	for j := 0; j < n; j++ {
		if col.isNull(j) {
			continue
		}
		if col.isCoded(j) {
			code := int(vals[0])
			if col.codeSize == 2 {
				code = code<<8 | int(vals[1])
			}
			vals = vals[col.codeSize:]
			if code >= len(col.dict) {
				return fmt.Errorf("compress: PAGE code %d out of range", code)
			}
			if err := visit(j, code, nil); err != nil {
				return err
			}
			continue
		}
		ln, adv, err := readLenPrefix(vals)
		if err != nil {
			return err
		}
		if err := visit(j, -1, vals[adv:adv+ln]); err != nil {
			return err
		}
		vals = vals[adv+ln:]
	}
	return nil
}

// decodePrefixed reconstructs one value from the page prefix plus a suffix,
// reusing scratch for the concatenation.
func decodePrefixed(c storage.Column, prefix, suffix, scratch []byte) (storage.Value, []byte, error) {
	if len(prefix) == 0 {
		v, err := decodeValueBytes(c, suffix)
		return v, scratch, err
	}
	scratch = append(scratch[:0], prefix...)
	scratch = append(scratch, suffix...)
	v, err := decodeValueBytes(c, scratch)
	return v, scratch, err
}

// predOutcome is a page-level predicate verdict derived from metadata alone.
type predOutcome int

const (
	outUnknown   predOutcome = iota
	outAllMatch              // every non-null row satisfies the predicate
	outNoneMatch             // no row satisfies the predicate
)

// prefixPredOutcome decides a predicate for the whole page from the common
// prefix when possible. NULL bounds resolve identically for every non-null
// value (NULLs sort first under Value.Compare), so they decide the page for
// any kind. Beyond that: minimal zigzag/bit encodings are canonical —
// byte(in)equality decides value (in)equality for ints and dates — but not
// order-preserving, so integer ranges stay unknown; string values are
// stored as their comparison bytes, so the shared prefix bounds every value
// from below and ranges can often be decided outright.
func prefixPredOutcome(c storage.Column, p storage.ColPredicate, prefix []byte) predOutcome {
	switch p.Op {
	case storage.PredEq, storage.PredLt, storage.PredLe:
		if p.Lo.Null {
			return outNoneMatch
		}
	case storage.PredNe, storage.PredGt, storage.PredGe:
		if p.Lo.Null {
			return outAllMatch
		}
	case storage.PredBetween:
		if p.Hi.Null {
			return outNoneMatch
		}
		if p.Lo.Null {
			return prefixPredOutcome(c, storage.ColPredicate{Op: storage.PredLe, Lo: p.Hi}, prefix)
		}
	}
	// The byte-level analysis below is only sound when the bound actually
	// has the column kind (the executor pre-coerces; stay safe if not).
	if p.Lo.Kind != c.Kind || (p.Op == storage.PredBetween && p.Hi.Kind != c.Kind) {
		return outUnknown
	}
	switch c.Kind {
	case storage.KindInt, storage.KindDate:
		if len(prefix) == 0 {
			return outUnknown
		}
		switch p.Op {
		case storage.PredEq:
			if !bytes.HasPrefix(valueBytes(c, p.Lo, nil), prefix) {
				return outNoneMatch
			}
		case storage.PredNe:
			if !bytes.HasPrefix(valueBytes(c, p.Lo, nil), prefix) {
				return outAllMatch
			}
		}
		return outUnknown
	case storage.KindString:
		pre := string(prefix)
		switch p.Op {
		case storage.PredEq:
			if !strings.HasPrefix(p.Lo.Str, pre) {
				return outNoneMatch
			}
		case storage.PredNe:
			if !strings.HasPrefix(p.Lo.Str, pre) {
				return outAllMatch
			}
		case storage.PredLt:
			return strLowOutcome(pre, p.Lo.Str, false)
		case storage.PredLe:
			return strLowOutcome(pre, p.Lo.Str, true)
		case storage.PredGt:
			return strHighOutcome(pre, p.Lo.Str, false)
		case storage.PredGe:
			return strHighOutcome(pre, p.Lo.Str, true)
		case storage.PredBetween:
			ge := strHighOutcome(pre, p.Lo.Str, true)
			le := strLowOutcome(pre, p.Hi.Str, true)
			switch {
			case ge == outNoneMatch || le == outNoneMatch:
				return outNoneMatch
			case ge == outAllMatch && le == outAllMatch:
				return outAllMatch
			}
		}
	}
	return outUnknown
}

// strLowOutcome decides v < t (orEq: v <= t) for every page value v, using
// only the fact that each v starts with pre (so v >= pre bytewise).
func strLowOutcome(pre, t string, orEq bool) predOutcome {
	switch {
	case t < pre, t == pre && !orEq:
		return outNoneMatch // v >= pre rules every row out
	case t == pre:
		return outUnknown // v <= pre holds only for the exact-prefix value
	case !strings.HasPrefix(t, pre):
		// t > pre without extending it: the first differing byte makes every
		// prefixed value compare below t.
		return outAllMatch
	}
	return outUnknown
}

// strHighOutcome decides v > t (orEq: v >= t) for every page value v.
func strHighOutcome(pre, t string, orEq bool) predOutcome {
	switch {
	case t < pre, t == pre && orEq:
		return outAllMatch // v >= pre already clears the bound
	case t == pre:
		return outUnknown // v > pre fails only for the exact-prefix value
	case !strings.HasPrefix(t, pre):
		return outNoneMatch // every prefixed value compares below t
	}
	return outUnknown
}

// filterPageColumn narrows sel by evaluating preds against one parsed PAGE
// column section: NULL rows fail outright, the common prefix decides what it
// can for the whole page, and residual predicates evaluate once per local-
// dictionary entry with row codes tested against the matching set. Returns
// the new selection count and whether any value bytes were decoded (pages
// decided from metadata alone are free). Shared by the uniform PAGE codec
// and PAGE sections inside per-column design pages.
func filterPageColumn(c storage.Column, col *pageColumn, n int, ps []storage.ColPredicate, sel []bool, selCount int, scratch []byte) (int, []byte, bool, error) {
	// A predicated column fails every NULL row (three-valued logic) —
	// decided from the null bitmap alone.
	for j := 0; j < n; j++ {
		if sel[j] && col.isNull(j) {
			sel[j] = false
			selCount--
		}
	}
	// Try to decide each predicate from the common prefix.
	var residual []storage.ColPredicate
	none := false
	for _, p := range ps {
		switch prefixPredOutcome(c, p, col.prefix) {
		case outNoneMatch:
			none = true
		case outAllMatch:
			// Satisfied by every non-null row; nothing to evaluate.
		default:
			residual = append(residual, p)
		}
	}
	if none {
		for j := range sel {
			sel[j] = false
		}
		return 0, scratch, false, nil
	}
	if len(residual) == 0 || selCount == 0 {
		return selCount, scratch, false, nil
	}
	// Evaluate the residual predicates once per dictionary entry, then
	// test row codes against the matching set; literal suffixes decode
	// per occurrence.
	match := make([]bool, len(col.dict))
	for k, suffix := range col.dict {
		var v storage.Value
		var err error
		v, scratch, err = decodePrefixed(c, col.prefix, suffix, scratch)
		if err != nil {
			return 0, scratch, true, err
		}
		ok := true
		for _, p := range residual {
			if !p.Matches(v) {
				ok = false
				break
			}
		}
		match[k] = ok
	}
	err := col.visitValues(n, func(j, code int, lit []byte) error {
		if !sel[j] {
			return nil
		}
		if code >= 0 {
			if !match[code] {
				sel[j] = false
				selCount--
			}
			return nil
		}
		var v storage.Value
		var verr error
		v, scratch, verr = decodePrefixed(c, col.prefix, lit, scratch)
		if verr != nil {
			return verr
		}
		for _, p := range residual {
			if !p.Matches(v) {
				sel[j] = false
				selCount--
				break
			}
		}
		return nil
	})
	return selCount, scratch, true, err
}

// materializePageColumn reconstructs the selected rows' values of one parsed
// PAGE column, decoding each dictionary entry at most once, delivering them
// through set(row, value). Shared like filterPageColumn.
func materializePageColumn(c storage.Column, col *pageColumn, n int, sel []bool, set func(j int, v storage.Value), scratch []byte) ([]byte, error) {
	for j := 0; j < n; j++ {
		if sel[j] && col.isNull(j) {
			set(j, storage.NullValue(c.Kind))
		}
	}
	dictVals := make([]storage.Value, len(col.dict))
	dictDone := make([]bool, len(col.dict))
	err := col.visitValues(n, func(j, code int, lit []byte) error {
		if !sel[j] {
			return nil
		}
		var v storage.Value
		var verr error
		if code >= 0 {
			if !dictDone[code] {
				v, scratch, verr = decodePrefixed(c, col.prefix, col.dict[code], scratch)
				if verr != nil {
					return verr
				}
				dictVals[code], dictDone[code] = v, true
			}
			set(j, dictVals[code])
			return nil
		}
		v, scratch, verr = decodePrefixed(c, col.prefix, lit, scratch)
		if verr != nil {
			return verr
		}
		set(j, v)
		return nil
	})
	return scratch, err
}

func (pageCodec) DecodeColumns(s *storage.Schema, payload []byte, nrows int, spec *storage.DecodeSpec) (*storage.DecodedPage, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("compress: short PAGE page")
	}
	n := int(binary.BigEndian.Uint16(payload[:2]))
	payload = payload[2:]
	if n != nrows {
		return nil, fmt.Errorf("compress: PAGE header says %d rows, directory says %d", n, nrows)
	}
	bitmapLen := (n + 7) / 8

	// The selection starts from the slot filter and shrinks as predicate
	// columns are evaluated.
	sel := make([]bool, n)
	selCount := 0
	if spec.Slots == nil {
		for j := range sel {
			sel[j] = true
		}
		selCount = n
	} else {
		for _, sl := range spec.Slots {
			if sl >= 0 && sl < n && !sel[sl] {
				sel[sl] = true
				selCount++
			}
		}
	}

	predsByCol := make(map[int][]storage.ColPredicate, len(spec.Preds))
	last := -1
	for _, p := range spec.Preds {
		predsByCol[p.Col] = append(predsByCol[p.Col], p)
		if p.Col > last {
			last = p.Col
		}
	}
	needSet := make(map[int]bool, len(spec.Needed))
	for _, ci := range spec.Needed {
		needSet[ci] = true
		if ci > last {
			last = ci
		}
	}

	out := &storage.DecodedPage{}
	sections := make(map[int]*pageColumn, len(spec.Needed))
	counted := make(map[int]bool, len(spec.Needed))
	scratch := make([]byte, 0, 64)

	// Pass 1: walk the column sections in layout order, evaluating pushed
	// predicates as their columns stream by. Columns past the last needed or
	// predicated one are never even parsed.
	rest := payload
	for ci := 0; ci <= last && ci < len(s.Columns); ci++ {
		col, r, err := parsePageColumn(rest, n, bitmapLen)
		if err != nil {
			return nil, err
		}
		rest = r
		if needSet[ci] {
			c := col
			sections[ci] = &c
		}
		ps := predsByCol[ci]
		if len(ps) == 0 || selCount == 0 {
			continue
		}
		var touched bool
		selCount, scratch, touched, err = filterPageColumn(s.Columns[ci], &col, n, ps, sel, selCount, scratch)
		if err != nil {
			return nil, err
		}
		if touched && !counted[ci] {
			counted[ci] = true
			out.ColumnsDecoded++
		}
	}

	out.TuplesDecoded = int64(selCount)
	if selCount == 0 {
		return out, nil
	}

	// Pass 2: materialize the needed columns of the surviving rows. Each
	// dictionary entry decodes at most once per page.
	outIdx := make([]int, n)
	out.Slots = make([]int, 0, selCount)
	for j := 0; j < n; j++ {
		if sel[j] {
			outIdx[j] = len(out.Slots)
			out.Slots = append(out.Slots, j)
		} else {
			outIdx[j] = -1
		}
	}
	out.Rows = make([]storage.Row, selCount)
	for i := range out.Rows {
		out.Rows[i] = make(storage.Row, len(spec.Needed))
	}
	for k, ci := range spec.Needed {
		col := sections[ci]
		if col == nil {
			return nil, fmt.Errorf("compress: needed column %d not parsed", ci)
		}
		if !counted[ci] {
			counted[ci] = true
			out.ColumnsDecoded++
		}
		k := k
		set := func(j int, v storage.Value) {
			out.Rows[outIdx[j]][k] = v
		}
		var err error
		scratch, err = materializePageColumn(s.Columns[ci], col, n, sel, set, scratch)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
