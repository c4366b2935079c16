package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/datagen"
	"cadb/internal/exec"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

func TestPercentileRuleRefusesP90Below100(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 9}, {n: 99},
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || p != tc.want {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", tc.n, p, ok, tc.want, tc.ok)
		}
	}
	for _, n := range []int{99, 100} {
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = float64(i+1) / 1e3
		}
		rep := &report{}
		addLatency(rep, "query", lat, true)
		names := metricsJSON(rep.e2e)
		if _, has := names["query_p90_ms"]; has != (n >= 100) {
			t.Errorf("%d samples: query_p90_ms reported = %t", n, has)
		}
		if got := names["query_p90_ms"].Value; n == 100 && math.Abs(got-90.1) > 1e-9 {
			t.Errorf("p90 of 1..100 ms = %g, want 90.1", got)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "exec.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "index.a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "compress.inner", Start: 15, End: 20}, // nested: only A loses it
		{ID: 4, Parent: 1, Name: "index.b", Start: 30, End: 60},        // overlaps A
		{ID: 5, Parent: 1, Name: "storage.c", Start: 90, End: 120},     // sticks out of the root
		{ID: 6, Parent: 1, Name: "storage.d", Start: 35, End: 50},      // inside A and B
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"exec.root":      100 - 50 - 10, // children cover [10,60] and [90,100]
		"index.a":        30 - 5,
		"compress.inner": 5,
		"index.b":        30,
		"storage.c":      30,
		"storage.d":      15,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, self[name], d)
		}
	}
	layers := layerSelfTimes(self)
	if layers["index"] != 55 || layers["storage"] != 45 || layers["exec"] != 40 {
		t.Errorf("layer self times = %v", layers)
	}

	tr := newTracer()
	outer := tr.begin("exec.outer", "")
	inner := tr.begin("index.inner", "x")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 || tr.spans[1].Label != "x" {
		t.Errorf("tracer parents = %+v", tr.spans)
	}
	var off *tracer
	off.end(off.begin("exec.x", "")) // a nil tracer records nothing
}

// faultyStore wraps a real store, failing the errAt-th query call and
// dropping a row from the result of the wrongAt-th.
type faultyStore struct {
	*exec.Store
	calls, errAt, wrongAt int
}

func (f *faultyStore) RunQuery(q *workload.Query) (*exec.Result, error) {
	f.calls++
	res, err := f.Store.RunQuery(q)
	switch {
	case err != nil:
		return nil, err
	case f.calls == f.errAt:
		return nil, errors.New("injected")
	case f.calls == f.wrongAt:
		res.Rows = res.Rows[1:]
	}
	return res, nil
}

func TestFailedFracCountsInjectedErrorAndWrongRow(t *testing.T) {
	spec := serveSpec{name: "sales", mkdb: func() (*catalog.Database, *workload.Workload, error) {
		db := datagen.NewSales(datagen.SalesConfig{FactRows: 400, Seed: 3})
		wl, err := workloads.SalesWithUpdates(3)
		return db, wl, err
	}}
	db, wl, err := spec.mkdb()
	if err != nil {
		t.Fatal(err)
	}
	stmts := executable(wl)
	st, err := exec.NewStore(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Corrupt the first query after the failing one that returns rows.
	fs := &faultyStore{Store: st, errAt: 1}
	var queries, writes int
	for _, s := range stmts {
		if s.Query == nil {
			writes++
			continue
		}
		queries++
		if fs.wrongAt == 0 && queries > fs.errAt {
			res, err := exec.Run(db, s.Query)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) > 0 {
				fs.wrongAt = queries
			}
		}
	}
	if fs.wrongAt == 0 || writes == 0 {
		t.Fatalf("workload has no query with rows after the first (wrongAt %d) or no writes (%d)", fs.wrongAt, writes)
	}

	rep := &report{}
	rp := &replay{rep: rep, store: fs, or: &oracle{}, stmts: stmts}
	if err := rp.or.prepare(nil, spec, db, stmts); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.run(0, true, stmts); err != nil {
		t.Fatal(err)
	}
	// Each statement is checked for an error and, without one, for its
	// rows or row count.
	wantAttempted := 2*(queries+writes) - 1
	if rep.failed != 2 || rep.attempted != wantAttempted {
		t.Fatalf("failed %d of %d, want 2 of %d; failures %q", rep.failed, rep.attempted, wantAttempted, rep.failures)
	}
	if got, want := rep.failedFrac(), 2/float64(wantAttempted); got != want {
		t.Errorf("failed_frac = %g, want %g", got, want)
	}
	if len(rp.queryLat) != queries || len(rp.writeLat) != writes {
		t.Errorf("latency samples %d/%d, want %d/%d", len(rp.queryLat), len(rp.writeLat), queries, writes)
	}
}

// TestCollectLeavesOutOracleHeap checks that peak_heap_mb does not count
// what the benchmark's oracle holds: bytes held since benchHeap was measured
// stay out of every later collection.
func TestCollectLeavesOutOracleHeap(t *testing.T) {
	const size = 16 << 20
	before := liveHeap()
	held := make([]byte, size)
	rep := &report{benchHeap: liveHeap() - before}
	rep.collect()
	runtime.KeepAlive(held)
	if rep.benchHeap < size {
		t.Fatalf("benchHeap = %d, want at least %d", rep.benchHeap, size)
	}
	if slack := uint64(4 << 20); rep.peakHeap > before+slack {
		t.Errorf("peakHeap = %d counts the held bytes (live before %d)", rep.peakHeap, before)
	}
}

// manifest reads the metric names and units BENCHMARK.json lists.
func manifest(t *testing.T) (e2e, layer map[string]string, e2eOrder, layerOrder []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	e2e, layer = make(map[string]string), make(map[string]string)
	for _, x := range m.EndToEnd {
		e2e[x.Name] = x.Unit
		e2eOrder = append(e2eOrder, x.Name)
	}
	for _, x := range m.PerLayer {
		layer[x.Name] = x.Unit
		layerOrder = append(layerOrder, x.Name)
	}
	return e2e, layer, e2eOrder, layerOrder
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	_, _, e2e, layer := manifest(t)
	if !slices.Equal(e2e, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEndNames)
	}
	if !slices.Equal(layer, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layer, perLayerNames)
	}
}

func TestManifestMetricsRefusesMissingAndZero(t *testing.T) {
	ms := []metric{{Name: "a", Unit: "s", Value: 1}, {Name: "b", Unit: "count", Value: 0}}
	if _, err := manifestMetrics([]string{"a", "c"}, ms, false); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := manifestMetrics([]string{"a", "b"}, ms, true); err == nil {
		t.Error("a zero end-to-end metric was accepted")
	}
	got, err := manifestMetrics([]string{"b"}, ms, false)
	if err != nil || len(got) != 1 {
		t.Errorf("manifestMetrics = %v, %v", got, err)
	}
}

// TestQuickSmoke runs every workload at quick scale, untraced and traced,
// twice at one seed: every check must pass, every metric BENCHMARK.json
// lists must be reported in its unit, and every exact count must repeat
// exactly.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2eUnits, layerUnits, _, _ := manifest(t)
	for name := range workloadsByName {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: DefaultSeed, quick: true, out: t.TempDir()}
			if err := run(cfg, io.Discard); err != nil {
				t.Fatal(err)
			}
			cfg.trace = true
			if err := run(cfg, io.Discard); err != nil {
				t.Fatal(err)
			}
			var exact []map[string]float64
			for i := 0; i < 2; i++ {
				rep, tr, err := measure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(tr.spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("failed %d of %d: %q", rep.failed, rep.attempted, rep.failures)
				}
				for _, ms := range []struct {
					got   []metric
					units map[string]string
				}{{rep.e2e, e2eUnits}, {rep.layer, layerUnits}} {
					got := make(map[string]metric)
					for _, m := range ms.got {
						got[m.Name] = m
					}
					for n, unit := range ms.units {
						if m, ok := got[n]; !ok || m.Unit != unit {
							t.Errorf("%s = %+v, %t; want unit %s", n, m, ok, unit)
						}
					}
				}
				counts := make(map[string]float64)
				for _, m := range append(rep.e2e, rep.layer...) {
					if m.N == 0 {
						counts[m.Name] = m.Value
					}
				}
				exact = append(exact, counts)
			}
			for k, v := range exact[0] {
				if exact[1][k] != v {
					t.Errorf("exact %s: %g then %g", k, v, exact[1][k])
				}
			}
		})
	}
}
