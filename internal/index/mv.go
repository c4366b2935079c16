package index

import (
	"fmt"
	"strings"

	"cadb/internal/catalog"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// MaterializeMV executes the view definition over the database: hash-join the
// fact table with each dimension (key/foreign-key joins, so at most one match
// per fact row), apply the WHERE clause, then group and aggregate. The result
// always includes a trailing hidden "__count" column when grouped.
//
// The returned schema qualifies column names as table_col to keep them unique
// across joined tables.
func MaterializeMV(db *catalog.Database, mv *MVDef) (*storage.Schema, []storage.Row, error) {
	return MaterializeMVOver(db, mv, nil, nil)
}

// MaterializeMVOver is MaterializeMV with an optional fact-table row
// override; the sampling subsystem passes a fact sample here to build MV
// samples over join synopses (Appendix B).
func MaterializeMVOver(db *catalog.Database, mv *MVDef, factSchema *storage.Schema, factRows []storage.Row) (*storage.Schema, []storage.Row, error) {
	schema, rows, err := JoinRowsFrom(db, mv.Fact, factSchema, factRows, mv.Joins)
	if err != nil {
		return nil, nil, err
	}
	rows, err = FilterRows(schema, rows, mv.Where)
	if err != nil {
		return nil, nil, err
	}
	if len(mv.GroupBy) == 0 && len(mv.Aggs) == 0 {
		// A join-projection view: project the referenced columns.
		return schema, rows, nil
	}
	return groupRows(schema, rows, mv.GroupBy, mv.Aggs)
}

// QualifiedCol renders the canonical joined-row column name for a reference.
func QualifiedCol(c workload.ColRef) string {
	if c.Table == "" {
		return strings.ToLower(c.Col)
	}
	return strings.ToLower(c.Table + "_" + c.Col)
}

// JoinRows joins the fact table with each joined dimension table, producing a
// wide row set whose schema has columns named table_col. Fact rows with no
// dimension match (possible when sampling the fact table) are dropped, which
// matches inner-join semantics.
func JoinRows(db *catalog.Database, fact string, joins []workload.Join) (*storage.Schema, []storage.Row, error) {
	return JoinRowsFrom(db, fact, nil, nil, joins)
}

// TableFetch overrides where a table's rows come from during joins; nil
// falls back to the catalog's in-memory rows. The segment-backed executor
// supplies a fetch that scans the table's heap segment (and counts the
// reads).
type TableFetch func(table string) (*storage.Schema, []storage.Row, error)

// JoinRowsFrom is JoinRows but with an optional row override for the fact
// table (factSchema/factRows non-nil) — used by the sampling subsystem to
// join a fact-table sample against the full dimension tables (join synopses,
// Appendix B.2).
func JoinRowsFrom(db *catalog.Database, fact string, factSchema *storage.Schema, factRows []storage.Row, joins []workload.Join) (*storage.Schema, []storage.Row, error) {
	ft := db.Table(fact)
	if ft == nil {
		return nil, nil, fmt.Errorf("index: unknown fact table %q", fact)
	}
	if factSchema == nil {
		factSchema, factRows = ft.Schema, ft.Rows
	}
	jn, err := NewJoiner(db, fact, factSchema, joins, nil)
	if err != nil {
		return nil, nil, err
	}
	out := make([]storage.Row, 0, len(factRows))
	for _, r := range factRows {
		if wide, ok := jn.JoinRow(r); ok {
			out = append(out, wide)
		}
	}
	return jn.Schema(), out, nil
}

// Joiner is the streaming form of JoinRowsFrom: the dimension hash tables
// are built once up front, then fact rows widen one at a time. Both the
// plain-row oracle and the segment-backed executor run their rows through
// this same probe code, so join behavior (and the resulting float-sum
// order downstream) cannot diverge between them.
type Joiner struct {
	schema *storage.Schema
	steps  []joinStep
}

type joinStep struct {
	hash     map[storage.ValueKey]storage.Row
	probeIdx int
}

// NewJoiner resolves the join chain against the database, fetching each
// dimension (through fetch when given) and hashing it on its key. The fact
// schema is the shape of the rows that will be fed to JoinRow — possibly a
// pruned projection of the table when the access path pushes the needed
// column set down.
func NewJoiner(db *catalog.Database, fact string, factSchema *storage.Schema, joins []workload.Join, fetch TableFetch) (*Joiner, error) {
	// Start with the fact table, columns renamed to fact_col.
	curCols := qualifyColumns(fact, factSchema.Columns)
	steps := make([]joinStep, 0, len(joins))

	for _, j := range joins {
		dimName, dimCol, factCol := j.RightTable, j.RightCol, j.LeftCol
		if !strings.EqualFold(j.LeftTable, fact) {
			// Allow the join to be written either direction.
			if strings.EqualFold(j.RightTable, fact) {
				dimName, dimCol, factCol = j.LeftTable, j.LeftCol, j.RightCol
			} else {
				// Snowflake joins hang off a previously joined dimension:
				// treat the already-joined side as the "fact" side.
				dimName, dimCol, factCol = j.RightTable, j.RightCol, j.LeftTable+"_"+j.LeftCol
			}
		}
		dim := db.Table(dimName)
		if dim == nil {
			return nil, fmt.Errorf("index: unknown dimension table %q", dimName)
		}
		dimSchema, dimRows := dim.Schema, dim.Rows
		if fetch != nil {
			var err error
			dimSchema, dimRows, err = fetch(dimName)
			if err != nil {
				return nil, err
			}
		}
		// Hash the dimension on its key.
		dimKey := dimSchema.ColIndex(dimCol)
		if dimKey < 0 {
			return nil, fmt.Errorf("index: %s has no column %q", dimName, dimCol)
		}
		hash := make(map[storage.ValueKey]storage.Row, len(dimRows))
		for _, r := range dimRows {
			hash[r[dimKey].Key()] = r
		}
		// Probe side column index in the current wide row.
		probeIdx := indexOfQualified(curCols, fact, factCol)
		if probeIdx < 0 {
			return nil, fmt.Errorf("index: join column %q not found in joined row", factCol)
		}
		steps = append(steps, joinStep{hash: hash, probeIdx: probeIdx})
		curCols = append(curCols, qualifyColumns(dimName, dimSchema.Columns)...)
	}
	return &Joiner{schema: storage.NewSchema(curCols...), steps: steps}, nil
}

// Schema returns the wide table_col-named schema JoinRow produces.
func (jn *Joiner) Schema() *storage.Schema { return jn.schema }

// JoinRow widens one fact row through every join step. ok=false means the
// row found no dimension match and is dropped (inner-join semantics).
func (jn *Joiner) JoinRow(r storage.Row) (wide storage.Row, ok bool) {
	wide = r
	for _, st := range jn.steps {
		m, found := st.hash[wide[st.probeIdx].Key()]
		if !found {
			return nil, false
		}
		nw := make(storage.Row, 0, len(wide)+len(m))
		nw = append(nw, wide...)
		nw = append(nw, m...)
		wide = nw
	}
	return wide, true
}

func qualifyColumns(table string, cols []storage.Column) []storage.Column {
	out := make([]storage.Column, len(cols))
	for i, c := range cols {
		c.Name = strings.ToLower(table + "_" + c.Name)
		out[i] = c
	}
	return out
}

// indexOfQualified finds a column that is either already qualified
// (tbl_col form) or belongs to the named table.
func indexOfQualified(cols []storage.Column, table, col string) int {
	want1 := strings.ToLower(table + "_" + col)
	want2 := strings.ToLower(col)
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if lc == want1 || lc == want2 {
			return i
		}
	}
	return -1
}

// FilterRows applies the ANDed predicates; predicate columns may be written
// unqualified (col) or qualified (table.col), both resolved against the wide
// schema's table_col naming.
func FilterRows(s *storage.Schema, rows []storage.Row, preds []workload.Predicate) ([]storage.Row, error) {
	f, err := NewRowFilter(s, preds)
	if err != nil {
		return nil, err
	}
	if f.Empty() {
		return rows, nil
	}
	out := make([]storage.Row, 0, len(rows))
	for _, r := range rows {
		if f.Keep(r) {
			out = append(out, r)
		}
	}
	return out, nil
}

// RowFilter is the streaming form of FilterRows: predicate columns resolve
// against the schema once, then rows are tested one at a time.
type RowFilter struct {
	bounds []predBound
}

type predBound struct {
	idx int
	p   workload.Predicate
}

// NewRowFilter resolves every predicate column against the schema, failing
// on unknown columns exactly as FilterRows does.
func NewRowFilter(s *storage.Schema, preds []workload.Predicate) (*RowFilter, error) {
	f := &RowFilter{bounds: make([]predBound, 0, len(preds))}
	for _, p := range preds {
		idx := resolveCol(s, p.Table, p.Col)
		if idx < 0 {
			return nil, fmt.Errorf("index: predicate column %q not found", p.Col)
		}
		f.bounds = append(f.bounds, predBound{idx: idx, p: p})
	}
	return f, nil
}

// Empty reports whether the filter has no predicates (every row passes).
func (f *RowFilter) Empty() bool { return len(f.bounds) == 0 }

// Keep reports whether the row satisfies every predicate (NULLs never do).
func (f *RowFilter) Keep(r storage.Row) bool {
	for _, b := range f.bounds {
		v := r[b.idx]
		if v.Null || !cmpMatches(b.p, v) {
			return false
		}
	}
	return true
}

func cmpMatches(p workload.Predicate, v storage.Value) bool {
	lo := p.Lo.CoerceTo(v.Kind)
	switch p.Op {
	case workload.OpEq:
		return v.Compare(lo) == 0
	case workload.OpNe:
		return v.Compare(lo) != 0
	case workload.OpLt:
		return v.Compare(lo) < 0
	case workload.OpLe:
		return v.Compare(lo) <= 0
	case workload.OpGt:
		return v.Compare(lo) > 0
	case workload.OpGe:
		return v.Compare(lo) >= 0
	case workload.OpBetween:
		return v.Compare(lo) >= 0 && v.Compare(p.Hi.CoerceTo(v.Kind)) <= 0
	}
	return false
}

// resolveCol finds a column in a (possibly qualified) wide schema.
func resolveCol(s *storage.Schema, table, col string) int {
	if table != "" {
		if i := s.ColIndex(table + "_" + col); i >= 0 {
			return i
		}
	}
	if i := s.ColIndex(col); i >= 0 {
		return i
	}
	// Unqualified name that exists under exactly one table qualifier.
	suffix := "_" + strings.ToLower(col)
	found := -1
	for i, c := range s.Columns {
		if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
			if found >= 0 {
				return -1 // ambiguous
			}
			found = i
		}
	}
	return found
}

// groupRows groups by the given columns and computes the aggregates plus the
// hidden __count column.
func groupRows(s *storage.Schema, rows []storage.Row, groupBy []workload.ColRef, aggs []workload.Aggregate) (*storage.Schema, []storage.Row, error) {
	ga, err := NewGroupAcc(s, groupBy, aggs)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range rows {
		ga.Add(r)
	}
	schema, out := ga.Finish()
	return schema, out, nil
}

// GroupAcc is the streaming form of groupRows: a grouping/aggregation
// accumulator fed one wide row at a time. Because the oracle and the
// segment-backed executor accumulate through this same code, feeding rows
// in the same order yields bit-identical float sums — the property the
// byte-identity differential tests pin down. Groups are emitted in first-
// appearance order.
type GroupAcc struct {
	s       *storage.Schema
	groupBy []workload.ColRef
	aggs    []workload.Aggregate
	gIdx    []int
	aIdx    []int
	groups  map[string]*groupState
	order   []*groupState
	kb      []byte
}

type groupState struct {
	key   storage.Row
	sums  []float64
	mins  []storage.Value
	maxs  []storage.Value
	nvals []int64
	count int64
}

// NewGroupAcc resolves the group-by and aggregate columns against the wide
// schema.
func NewGroupAcc(s *storage.Schema, groupBy []workload.ColRef, aggs []workload.Aggregate) (*GroupAcc, error) {
	ga := &GroupAcc{
		s:       s,
		groupBy: groupBy,
		aggs:    aggs,
		gIdx:    make([]int, len(groupBy)),
		aIdx:    make([]int, len(aggs)),
		groups:  make(map[string]*groupState, 1024),
		order:   make([]*groupState, 0, 1024),
	}
	for i, g := range groupBy {
		ga.gIdx[i] = resolveCol(s, g.Table, g.Col)
		if ga.gIdx[i] < 0 {
			return nil, fmt.Errorf("index: group-by column %q not found", g.String())
		}
	}
	for i, a := range aggs {
		if a.Col.Col == "" { // COUNT(*)
			ga.aIdx[i] = -1
			continue
		}
		ga.aIdx[i] = resolveCol(s, a.Col.Table, a.Col.Col)
		if ga.aIdx[i] < 0 {
			return nil, fmt.Errorf("index: aggregate column %q not found", a.Col.String())
		}
	}
	return ga, nil
}

// Add folds one row into its group.
func (ga *GroupAcc) Add(r storage.Row) {
	ga.kb = ga.kb[:0]
	for _, gi := range ga.gIdx {
		ga.kb = appendGroupKey(ga.kb, r[gi])
	}
	a, ok := ga.groups[string(ga.kb)]
	if !ok {
		a = &groupState{
			key:   make(storage.Row, len(ga.gIdx)),
			sums:  make([]float64, len(ga.aggs)),
			mins:  make([]storage.Value, len(ga.aggs)),
			maxs:  make([]storage.Value, len(ga.aggs)),
			nvals: make([]int64, len(ga.aggs)),
		}
		for i, gi := range ga.gIdx {
			a.key[i] = r[gi]
		}
		ga.groups[string(ga.kb)] = a
		ga.order = append(ga.order, a)
	}
	a.count++
	for i := range ga.aggs {
		if ga.aIdx[i] < 0 {
			continue
		}
		v := r[ga.aIdx[i]]
		if v.Null {
			continue
		}
		f := numeric(v)
		a.sums[i] += f
		if a.nvals[i] == 0 || v.Compare(a.mins[i]) < 0 {
			a.mins[i] = v
		}
		if a.nvals[i] == 0 || v.Compare(a.maxs[i]) > 0 {
			a.maxs[i] = v
		}
		a.nvals[i]++
	}
}

// Finish materializes the grouped output: group-by columns (renamed to
// their canonical qualified form), aggregate columns, and the hidden
// __count column.
func (ga *GroupAcc) Finish() (*storage.Schema, []storage.Row) {
	var cols []storage.Column
	for i, gi := range ga.gIdx {
		c := ga.s.Columns[gi]
		c.Name = QualifiedCol(ga.groupBy[i])
		cols = append(cols, c)
	}
	for i, a := range ga.aggs {
		name := fmt.Sprintf("%s_%s", strings.ToLower(a.Func.String()), QualifiedCol(a.Col))
		if a.Col.Col == "" {
			name = "count_star"
		}
		kind := storage.KindFloat
		if (a.Func == workload.AggMin || a.Func == workload.AggMax) && ga.aIdx[i] >= 0 {
			kind = ga.s.Columns[ga.aIdx[i]].Kind
		}
		if a.Func == workload.AggCount {
			kind = storage.KindInt
		}
		cols = append(cols, storage.Column{Name: uniqueName(cols, name), Kind: kind})
	}
	cols = append(cols, storage.Column{Name: "__count", Kind: storage.KindInt})
	outSchema := storage.NewSchema(cols...)

	out := make([]storage.Row, 0, len(ga.order))
	for _, a := range ga.order {
		row := make(storage.Row, 0, len(cols))
		row = append(row, a.key...)
		for i, ag := range ga.aggs {
			switch ag.Func {
			case workload.AggSum:
				row = append(row, storage.FloatVal(a.sums[i]))
			case workload.AggAvg:
				if a.nvals[i] == 0 {
					row = append(row, storage.NullValue(storage.KindFloat))
				} else {
					row = append(row, storage.FloatVal(a.sums[i]/float64(a.nvals[i])))
				}
			case workload.AggCount:
				n := a.count
				if ga.aIdx[i] >= 0 {
					n = a.nvals[i]
				}
				row = append(row, storage.IntVal(n))
			case workload.AggMin:
				row = append(row, orNull(a.mins[i], a.nvals[i]))
			case workload.AggMax:
				row = append(row, orNull(a.maxs[i], a.nvals[i]))
			}
		}
		row = append(row, storage.IntVal(a.count))
		out = append(out, row)
	}
	return outSchema, out
}

func orNull(v storage.Value, n int64) storage.Value {
	if n == 0 {
		return storage.NullValue(v.Kind)
	}
	return v
}

func uniqueName(cols []storage.Column, name string) string {
	exists := func(n string) bool {
		for _, c := range cols {
			if strings.EqualFold(c.Name, n) {
				return true
			}
		}
		return false
	}
	if !exists(name) {
		return name
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s_%d", name, i)
		if !exists(cand) {
			return cand
		}
	}
}

func numeric(v storage.Value) float64 {
	switch v.Kind {
	case storage.KindFloat:
		return v.Float
	default:
		return float64(v.Int)
	}
}

func appendGroupKey(dst []byte, v storage.Value) []byte {
	if v.Null {
		return append(dst, 0xFF)
	}
	switch v.Kind {
	case storage.KindString:
		dst = append(dst, 1)
		dst = append(dst, v.Str...)
		return append(dst, 0)
	case storage.KindFloat:
		dst = append(dst, 2)
		u := uint64(int64(v.Float * 1e6))
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(u>>uint(s)))
		}
		return dst
	default:
		dst = append(dst, 3)
		u := uint64(v.Int)
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(u>>uint(s)))
		}
		return dst
	}
}
