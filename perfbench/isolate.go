package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/compress"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
)

// measureDesign builds every structure the store materializes for the
// design once, on a freshly generated copy of the workload's database, and
// reports their bytes as bytes_per_user_byte. Every workload measures its
// design this way after its timed rounds, so the metric means the same on
// all of them and does not depend on which structures the queries touch or
// on the workload's writes. A traced run then times single layers on those
// structures: see isolationPass.
func measureDesign(cfg config, tr *tracer, rep *report, mkdb func() (*catalog.Database, *workload.Workload, error), defs []*index.Def) error {
	tr.setRound(-1)
	id := tr.begin("datagen.generate", "design")
	db, _, err := mkdb()
	tr.end(id)
	if err != nil {
		return err
	}
	structs := storeStructures(db, defs)
	var segs []*index.SegmentIndex
	var buildDur time.Duration
	var buildRows, bytes int64
	for _, d := range structs {
		id := tr.begin("index.build", d.ID())
		t := time.Now()
		si, err := index.BuildSegmentIndex(db, d)
		buildDur += time.Since(t)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("design build %s: %w", d, err)
		}
		segs = append(segs, si)
		buildRows += si.Seg.Rows()
		bytes += si.Seg.DiskBytes()
	}
	rep.input("design_bytes", bytes)
	rep.input("design_structures", len(structs))
	rep.addE2E("bytes_per_user_byte", "ratio", ratio(float64(bytes), float64(db.TotalHeapBytes())), 0)
	if !cfg.trace {
		return nil
	}
	return isolationPass(cfg, tr, rep, db, segs, buildDur, buildRows)
}

// isolationPass times single layers outside any statement, on the workload's
// own data and design: the index builds measureDesign made, codec decode per
// method, spills to disk and page fetches through a cold pool of the
// workload's capacity. It runs only in traced runs, after the timed rounds.
func isolationPass(cfg config, tr *tracer, rep *report, db *catalog.Database, segs []*index.SegmentIndex, buildDur time.Duration, buildRows int64) error {
	rep.addLayer("index.build_ms_per_krow", "ms", ratio(1e3*buildDur.Seconds(), float64(buildRows)/1e3), len(segs))

	var tuples int64
	var decodeDur time.Duration
	for _, si := range segs {
		n, d, err := decodeAll(tr, si.Def.ID(), si.Seg)
		if err != nil {
			return err
		}
		tuples += n
		decodeDur += d
	}
	rep.addLayer("compress.design_decode_ns_per_tuple", "ns", ratio(float64(decodeDur.Nanoseconds()), float64(tuples)), len(segs))

	// Per codec: the largest table's heap encoded and decoded under each
	// method, so the metric set does not depend on the design chosen. The
	// rows are materialized once, outside the timing, so the encode figure
	// is the codec's alone.
	heap := &index.Def{Table: largestTable(db), Clustered: true}
	schema, rows, err := index.MaterializeRows(db, heap)
	if err != nil {
		return fmt.Errorf("isolation materialize %s: %w", heap, err)
	}
	for _, m := range append([]compress.Method{compress.None}, compress.Methods...) {
		label := heap.Table + "/" + m.String()
		id := tr.begin("compress.encode", label)
		t := time.Now()
		seg, err := storage.BuildSegment(schema, rows, compress.DesignCodec(m, nil))
		enc := time.Since(t)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("isolation encode %s: %w", label, err)
		}
		n, dec, err := decodeAll(tr, label, seg)
		if err != nil {
			return err
		}
		rep.addLayer("compress.encode_ns_per_tuple."+m.String(), "ns", ratio(float64(enc.Nanoseconds()), float64(seg.Rows())), 1)
		rep.addLayer("compress.decode_ns_per_tuple."+m.String(), "ns", ratio(float64(dec.Nanoseconds()), float64(n)), seg.NumPages())
	}

	dir, err := os.MkdirTemp(cfg.out, "iso-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pool := bufferpool.New(sizesFor(cfg).poolBytes)
	var spillDur time.Duration
	var spillBytes int64
	for i, si := range segs {
		id := tr.begin("storage.spill", si.Def.ID())
		t := time.Now()
		err := si.Seg.Spill(filepath.Join(dir, fmt.Sprintf("seg%03d.cadb", i)), pool)
		spillDur += time.Since(t)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("isolation spill %s: %w", si.Def, err)
		}
		defer si.Seg.CloseBacking()
		spillBytes += si.Seg.DiskBytes()
	}
	rep.addLayer("storage.spill_mb_per_s", "MB/s", ratio(float64(spillBytes)/(1<<20), spillDur.Seconds()), len(segs))

	var fetchDur time.Duration
	var fetches int
	for _, si := range segs {
		for i := 0; i < si.Seg.NumPages(); i++ {
			id := tr.begin("bufferpool.fetch", "")
			t := time.Now()
			_, release, err := si.Seg.FetchPage(i, nil)
			if err != nil {
				tr.end(id)
				return fmt.Errorf("isolation fetch %s page %d: %w", si.Def, i, err)
			}
			release()
			fetchDur += time.Since(t)
			tr.end(id)
			fetches++
		}
	}
	rep.addLayer("bufferpool.fetch_us", "us", ratio(1e6*fetchDur.Seconds(), float64(fetches)), fetches)
	ps := pool.Stats()
	rep.check(ps.PeakBytes <= pool.Capacity() && ps.PinnedFrames == 0,
		"isolation pool: peak %d of %d bytes, %d frames pinned", ps.PeakBytes, pool.Capacity(), ps.PinnedFrames)
	return nil
}

// decodeAll decodes every column of every page of the segment, returning
// the tuples decoded and the time spent. label names the segment in spans
// and errors.
func decodeAll(tr *tracer, label string, seg *storage.Segment) (int64, time.Duration, error) {
	spec := &storage.DecodeSpec{Needed: seg.Schema.AllOrdinals()}
	var tuples int64
	var dur time.Duration
	for i := 0; i < seg.NumPages(); i++ {
		id := tr.begin("compress.decode_columns", label)
		t := time.Now()
		dp, err := seg.DecodeColumnsPage(i, spec)
		dur += time.Since(t)
		tr.end(id)
		if err != nil {
			return 0, 0, fmt.Errorf("isolation decode %s page %d: %w", label, i, err)
		}
		tuples += dp.TuplesDecoded
	}
	return tuples, dur, nil
}

// storeStructures lists what exec.NewStore materializes for a design: one
// heap per table (compressed like the table's clustered index, if any) and
// every design structure that is neither partial nor a view.
func storeStructures(db *catalog.Database, defs []*index.Def) []*index.Def {
	var out []*index.Def
	heaps := make(map[string]*index.Def)
	for _, t := range db.Tables() {
		h := &index.Def{Table: t.Name, Clustered: true}
		heaps[t.Name] = h
		out = append(out, h)
	}
	for _, d := range defs {
		if d.IsMV() || d.IsPartial() {
			continue
		}
		if h := heaps[d.Table]; d.Clustered && h != nil {
			h.Method, h.ColMethods = d.Method, d.ColMethods
		}
		out = append(out, d)
	}
	return out
}

// largestTable returns the table with the most rows.
func largestTable(db *catalog.Database) string {
	var best *catalog.Table
	for _, t := range db.Tables() {
		if best == nil || t.RowCount() > best.RowCount() {
			best = t
		}
	}
	return best.Name
}
