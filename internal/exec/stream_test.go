package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// streamGen generates values for one randomly drawn column.
type streamGen func(rng *rand.Rand) storage.Value

// randomStreamTable builds a random single-table database: 4-7 columns of
// mixed kinds (small domains so predicates and dictionaries bite, shared
// string prefixes so the PAGE prefix shortcuts fire), with random
// nullability.
func randomStreamTable(rng *rand.Rand, nrows int) (*catalog.Database, []streamGen) {
	ncols := 4 + rng.Intn(4)
	cols := make([]storage.Column, ncols)
	gens := make([]streamGen, ncols)
	for i := range cols {
		name := fmt.Sprintf("c%d", i)
		nullable := rng.Float64() < 0.4
		dom := 8 + rng.Intn(40)
		switch rng.Intn(4) {
		case 0:
			cols[i] = storage.Column{Name: name, Kind: storage.KindInt, Nullable: nullable}
			gens[i] = func(rng *rand.Rand) storage.Value { return storage.IntVal(int64(rng.Intn(dom)) - 5) }
		case 1:
			cols[i] = storage.Column{Name: name, Kind: storage.KindFloat, Nullable: nullable}
			gens[i] = func(rng *rand.Rand) storage.Value { return storage.FloatVal(float64(rng.Intn(dom)) / 4) }
		case 2:
			cols[i] = storage.Column{Name: name, Kind: storage.KindDate, Nullable: nullable}
			gens[i] = func(rng *rand.Rand) storage.Value { return storage.DateVal(int64(9000 + rng.Intn(dom*10))) }
		default:
			width := 0
			if rng.Float64() < 0.5 {
				width = 10
			}
			prefix := []string{"", "PRE-", "ZZZ-"}[rng.Intn(3)]
			cols[i] = storage.Column{Name: name, Kind: storage.KindString, FixedWidth: width, Nullable: nullable}
			gens[i] = func(rng *rand.Rand) storage.Value {
				return storage.StringVal(fmt.Sprintf("%s%03d", prefix, rng.Intn(dom)))
			}
		}
	}
	s := storage.NewSchema(cols...)
	rows := make([]storage.Row, nrows)
	for i := range rows {
		r := make(storage.Row, ncols)
		for j := range r {
			if cols[j].Nullable && rng.Float64() < 0.1 {
				r[j] = storage.NullValue(cols[j].Kind)
			} else {
				r[j] = gens[j](rng)
			}
		}
		rows[i] = r
	}
	db := catalog.NewDatabase("stream_prop")
	db.AddTable(&catalog.Table{Name: "t", Schema: s, Rows: rows})
	return db, gens
}

// randomStreamQuery draws a single-table query: random predicates (bounds
// mostly from the data, occasionally fresh or NULL), and either a grouped
// aggregate or a projection, each with optional ORDER BY.
func randomStreamQuery(rng *rand.Rand, s *storage.Schema, rows []storage.Row, gens []streamGen) *workload.Query {
	q := &workload.Query{Tables: []string{"t"}}
	ops := []workload.CmpOp{
		workload.OpEq, workload.OpNe, workload.OpLt, workload.OpLe,
		workload.OpGt, workload.OpGe, workload.OpBetween,
	}
	bound := func(ci int) storage.Value {
		r := rng.Float64()
		switch {
		case r < 0.05:
			return storage.NullValue(s.Columns[ci].Kind)
		case r < 0.2:
			return gens[ci](rng)
		default:
			return rows[rng.Intn(len(rows))][ci]
		}
	}
	for np := rng.Intn(4); np > 0; np-- {
		ci := rng.Intn(len(s.Columns))
		p := workload.Predicate{Col: s.Columns[ci].Name, Op: ops[rng.Intn(len(ops))], Lo: bound(ci)}
		if p.Op == workload.OpBetween {
			p.Hi = bound(ci)
		}
		q.Preds = append(q.Preds, p)
	}
	pickCols := func(max int) []workload.ColRef {
		seen := map[int]bool{}
		var out []workload.ColRef
		for k := 1 + rng.Intn(max); k > 0; k-- {
			ci := rng.Intn(len(s.Columns))
			if !seen[ci] {
				seen[ci] = true
				out = append(out, workload.ColRef{Table: "t", Col: s.Columns[ci].Name})
			}
		}
		return out
	}
	if rng.Float64() < 0.5 {
		// Grouped aggregate (sometimes global: no GROUP BY).
		if rng.Float64() < 0.8 {
			q.GroupBy = pickCols(2)
		}
		funcs := []workload.AggFunc{workload.AggSum, workload.AggCount, workload.AggAvg, workload.AggMin, workload.AggMax}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			f := funcs[rng.Intn(len(funcs))]
			a := workload.Aggregate{Func: f}
			if f != workload.AggCount || rng.Float64() < 0.5 {
				ci := rng.Intn(len(s.Columns))
				if f == workload.AggSum || f == workload.AggAvg {
					// SUM/AVG need a numeric source.
					for s.Columns[ci].Kind == storage.KindString {
						ci = rng.Intn(len(s.Columns))
					}
				}
				a.Col = workload.ColRef{Table: "t", Col: s.Columns[ci].Name}
			}
			q.Aggs = append(q.Aggs, a)
		}
		if len(q.GroupBy) > 0 && rng.Float64() < 0.5 {
			q.OrderBy = q.GroupBy[:1]
		}
	} else if rng.Float64() < 0.1 {
		// SELECT * — every column, no explicit list.
	} else {
		q.Select = pickCols(len(s.Columns))
		if rng.Float64() < 0.5 {
			q.OrderBy = q.Select[:1]
		}
	}
	return q
}

// randomStreamDesign builds a physical design exercising every access path
// under the given method: a clustered index on one column and a secondary
// (randomly covering or not) on another.
func randomStreamDesign(rng *rand.Rand, s *storage.Schema, m compress.Method) []*index.Def {
	perm := rng.Perm(len(s.Columns))
	cl := &index.Def{Table: "t", KeyCols: []string{s.Columns[perm[0]].Name}, Clustered: true, Method: m}
	sec := &index.Def{Table: "t", KeyCols: []string{s.Columns[perm[1]].Name}, Method: m}
	for _, ci := range perm[2:] {
		if rng.Float64() < 0.5 {
			sec.IncludeCols = append(sec.IncludeCols, s.Columns[ci].Name)
		}
	}
	return []*index.Def{cl, sec}
}

// builtSegmentTotals sums the rows and physical pages of every segment the
// store has built so far. Every access path visits each page of a structure
// at most once per statement, so these bound a single-table statement's
// TuplesDecoded and PageReads.
func builtSegmentTotals(st *Store) (rows, pages int64) {
	for _, h := range st.allHandles() {
		if h.si != nil && !h.stale {
			rows += h.si.Seg.Rows()
			pages += h.si.Seg.PhysicalPages()
		}
	}
	return rows, pages
}

// TestStreamingMatchesOracleRandomized is the property test for the
// streaming executor: over random schemas, physical designs and queries, for
// every codec, the streaming store must return byte-identical results to the
// plain-row oracle, while never decoding more tuples or reading more pages
// than one pass over each built segment.
func TestStreamingMatchesOracleRandomized(t *testing.T) {
	tables, queries := 6, 30
	if testing.Short() {
		tables, queries = 2, 8
	}
	rng := rand.New(rand.NewSource(23))
	for ti := 0; ti < tables; ti++ {
		db, gens := randomStreamTable(rng, 500+rng.Intn(600))
		tab := db.MustTable("t")
		designs := [][]*index.Def{nil}
		for _, m := range []compress.Method{compress.None, compress.Row, compress.Page} {
			designs = append(designs, randomStreamDesign(rng, tab.Schema, m))
		}
		for di, defs := range designs {
			stream, err := NewStore(db, defs)
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < queries; qi++ {
				q := randomStreamQuery(rng, tab.Schema, tab.Rows, gens)
				label := fmt.Sprintf("table %d design %d query %d (%d preds)", ti, di, qi, len(q.Preds))
				want, err := Run(db, q)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				got, err := stream.RunQuery(q)
				if err != nil {
					t.Fatalf("%s: streaming: %v", label, err)
				}
				assertResultsIdentical(t, label+" [stream vs oracle]", got, want)
				segRows, segPages := builtSegmentTotals(stream)
				if got.IO.TuplesDecoded > segRows {
					t.Fatalf("%s: streaming decoded %d tuples, built segments hold %d",
						label, got.IO.TuplesDecoded, segRows)
				}
				if got.IO.PageReads > segPages {
					t.Fatalf("%s: streaming read %d pages, built segments span %d",
						label, got.IO.PageReads, segPages)
				}
			}
		}
	}
}

// TestStreamingDecodeBudget pins the point of the refactor with a
// deterministic selective query: under PAGE compression, a single-column
// equality filter must decode under half the heap's tuples, fewer column
// payloads than whole-page decodes would, and strictly fewer tuples than the
// table scans.
func TestStreamingDecodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cols := []storage.Column{
		{Name: "k", Kind: storage.KindInt},
		{Name: "grp", Kind: storage.KindInt},
		{Name: "price", Kind: storage.KindFloat, Nullable: true},
		{Name: "tag", Kind: storage.KindString, FixedWidth: 10, Nullable: true},
	}
	s := storage.NewSchema(cols...)
	rows := make([]storage.Row, 4000)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntVal(int64(i)),
			storage.IntVal(int64(rng.Intn(50))),
			storage.FloatVal(float64(rng.Intn(100)) / 2),
			storage.StringVal(fmt.Sprintf("TAG-%03d", rng.Intn(30))),
		}
	}
	db := catalog.NewDatabase("stream_budget")
	db.AddTable(&catalog.Table{Name: "t", Schema: s, Rows: rows})
	defs := []*index.Def{{Table: "t", KeyCols: []string{"k"}, Clustered: true, Method: compress.Page}}
	stream, err := NewStore(db, defs)
	if err != nil {
		t.Fatal(err)
	}
	q := &workload.Query{
		Tables: []string{"t"},
		Preds:  []workload.Predicate{{Col: "grp", Op: workload.OpEq, Lo: storage.IntVal(7)}},
		Select: []workload.ColRef{{Table: "t", Col: "price"}},
	}
	got, err := stream.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(db, q)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "budget", got, want)
	segRows, segPages := builtSegmentTotals(stream)
	if got.IO.TuplesDecoded*2 >= segRows {
		t.Fatalf("selective filter decoded %d tuples of %d segment rows — pushdown not effective",
			got.IO.TuplesDecoded, segRows)
	}
	if got.IO.PageReads > segPages {
		t.Fatalf("selective filter read %d pages, built segments span %d", got.IO.PageReads, segPages)
	}
	if got.IO.TuplesDecoded >= int64(len(rows)) {
		t.Fatalf("selective filter decoded %d tuples of %d scanned rows", got.IO.TuplesDecoded, len(rows))
	}
	if full := got.IO.PagesDecoded * int64(len(cols)); got.IO.ColumnsDecoded >= full {
		t.Fatalf("selective filter touched %d column payloads, whole-page decodes %d",
			got.IO.ColumnsDecoded, full)
	}
}
