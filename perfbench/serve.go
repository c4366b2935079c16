package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"cadb/internal/bufferpool"
	"cadb/internal/catalog"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/exec"
	"cadb/internal/index"
	"cadb/internal/storage"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// statementRunner is the part of *exec.Store the replay loop drives; tests
// substitute one that injects errors and wrong rows.
type statementRunner interface {
	RunQuery(q *workload.Query) (*exec.Result, error)
	RunUpdate(u *workload.Update) (int64, exec.IOStats, error)
	RunDelete(d *workload.Delete) (int64, exec.IOStats, error)
}

// oracle answers the same statements on the plain-row executor. With writes
// it runs on a twin database that receives every write the store does;
// without, the answers are computed once and replayed.
type oracle struct {
	db     *catalog.Database
	twin   bool
	cached map[*workload.Statement][]byte
}

// prepare readies the oracle for a deployment over db: a freshly generated
// twin when the statements write, otherwise every answer precomputed on db.
func (o *oracle) prepare(tr *tracer, spec serveSpec, db *catalog.Database, stmts []*workload.Statement) error {
	id := tr.begin("check.prepare", "")
	defer tr.end(id)
	o.db, o.twin, o.cached = db, false, nil
	for _, s := range stmts {
		o.twin = o.twin || s.Query == nil
	}
	if o.twin {
		twin, _, err := spec.mkdb()
		o.db = twin
		return err
	}
	cached := make(map[*workload.Statement][]byte, len(stmts))
	for _, s := range stmts {
		b, err := o.query(s)
		if err != nil {
			return fmt.Errorf("%s: oracle: %w", s.Label, err)
		}
		cached[s] = b
	}
	o.cached = cached
	return nil
}

func (o *oracle) query(s *workload.Statement) ([]byte, error) {
	if b, ok := o.cached[s]; ok {
		return b, nil
	}
	res, err := exec.Run(o.db, s.Query)
	if err != nil {
		return nil, err
	}
	return canonical(res), nil
}

// canonical encodes a result's column names and rows, the byte-identity a
// store result must have with the oracle's.
func canonical(res *exec.Result) []byte {
	var b bytes.Buffer
	for _, c := range res.Schema.Columns {
		b.WriteString(strings.ToLower(c.Name))
		b.WriteByte(0)
	}
	var buf []byte
	for _, r := range res.Rows {
		buf = storage.EncodeRow(res.Schema, r, buf[:0])
		fmt.Fprintf(&b, "%d:", len(buf))
		b.Write(buf)
	}
	return b.Bytes()
}

// replay runs a workload's SELECT, UPDATE and DELETE statements in a closed
// loop, one client, timing each call and checking it against the oracle
// outside the timed window.
type replay struct {
	tr    *tracer
	rep   *report
	store statementRunner
	or    *oracle
	stmts []*workload.Statement

	// Per timed run.
	queryLat, writeLat []float64 // seconds per statement
	roundQuery         []float64 // seconds of RunQuery per round
	roundWrite         []float64 // seconds of RunUpdate/RunDelete per round
	io                 exec.IOStats
	rowsReturned       int64
	queries            int64
}

// run replays the statements once and returns the time spent in store
// calls. Timed runs record latencies and I/O; with an oracle set, every
// result is checked outside the timed window. r tags the spans with a round.
func (rp *replay) run(r int, timed bool, stmts []*workload.Statement) (float64, error) {
	rp.tr.setRound(r)
	var qSum, wSum float64
	for _, s := range stmts {
		if s.Query != nil {
			id := rp.tr.begin("exec.run_query", s.Label)
			t := time.Now()
			res, err := rp.store.RunQuery(s.Query)
			d := time.Since(t).Seconds()
			rp.tr.end(id)
			qSum += d
			if rp.or != nil {
				id = rp.tr.begin("check.oracle", s.Label)
				want, oerr := rp.or.query(s)
				rp.tr.end(id)
				if oerr != nil {
					return 0, fmt.Errorf("%s: oracle: %w", s.Label, oerr)
				}
				if rp.rep.check(err == nil, "round %d %s: %v", r, s.Label, err) {
					rp.rep.check(bytes.Equal(canonical(res), want), "round %d %s: result differs from the oracle", r, s.Label)
				}
			} else if err != nil {
				return 0, fmt.Errorf("%s: %w", s.Label, err)
			}
			if timed {
				rp.queryLat = append(rp.queryLat, d)
				if err == nil {
					rp.io.Add(res.IO)
					rp.rowsReturned += int64(len(res.Rows))
					rp.queries++
				}
			}
			continue
		}
		name, call := "exec.run_update", func() (int64, exec.IOStats, error) { return rp.store.RunUpdate(s.Update) }
		if s.Delete != nil {
			name, call = "exec.run_delete", func() (int64, exec.IOStats, error) { return rp.store.RunDelete(s.Delete) }
		}
		id := rp.tr.begin(name, s.Label)
		t := time.Now()
		n, io, err := call()
		d := time.Since(t).Seconds()
		rp.tr.end(id)
		wSum += d
		if rp.or != nil {
			id = rp.tr.begin("check.oracle", s.Label)
			var want int64
			var oerr error
			if s.Delete != nil {
				want, oerr = exec.RunDelete(rp.or.db, s.Delete)
			} else {
				want, oerr = exec.RunUpdate(rp.or.db, s.Update)
			}
			rp.tr.end(id)
			if oerr != nil {
				return 0, fmt.Errorf("%s: oracle: %w", s.Label, oerr)
			}
			if rp.rep.check(err == nil, "round %d %s: %v", r, s.Label, err) {
				rp.rep.check(n == want, "round %d %s: %d rows affected, oracle %d", r, s.Label, n, want)
			}
		} else if err != nil {
			return 0, fmt.Errorf("%s: %w", s.Label, err)
		}
		if timed {
			rp.writeLat = append(rp.writeLat, d)
			rp.io.Add(io)
		}
	}
	if timed {
		rp.roundQuery = append(rp.roundQuery, qSum)
		rp.roundWrite = append(rp.roundWrite, wSum)
	}
	return qSum + wSum, nil
}

// executable returns the statements the store can run, in workload order
// (bulk loads have no row semantics).
func executable(wl *workload.Workload) []*workload.Statement {
	var out []*workload.Statement
	for _, s := range wl.Statements {
		if s.Insert == nil {
			out = append(out, s)
		}
	}
	return out
}

// designDefs returns the structures of a recommendation the store
// materializes.
func designDefs(rec *core.Recommendation) []*index.Def {
	var defs []*index.Def
	for _, h := range rec.Config.Indexes() {
		defs = append(defs, h.Def)
	}
	return defs
}

// serveSpec describes one serving workload.
type serveSpec struct {
	name      string
	rows      int
	mkdb      func() (*catalog.Database, *workload.Workload, error)
	poolBytes int64 // 0: in-memory store
	warmup    int
	minRounds int
}

func runReadHot(cfg config, tr *tracer, rep *report) error {
	sz := sizesFor(cfg)
	return serve(cfg, tr, rep, serveSpec{
		name: "tpch",
		rows: sz.hotRows,
		mkdb: func() (*catalog.Database, *workload.Workload, error) {
			return genTPCH(sz.hotRows, cfg.seed)
		},
		warmup:    2,
		minRounds: 5, // 5 x 22 queries keeps p90 reportable
	})
}

// salesSQLSeed fixes readwrite-cold's statements: the seed draws the Sales
// workload's 50 queries from ten templates of very different cost, so a
// per-seed mix would move every latency metric by more than any bound. The
// benchmark seed varies the data.
const salesSQLSeed = DefaultSeed

func runReadWriteCold(cfg config, tr *tracer, rep *report) error {
	sz := sizesFor(cfg)
	return serve(cfg, tr, rep, serveSpec{
		name: "sales",
		rows: sz.coldRows,
		mkdb: func() (*catalog.Database, *workload.Workload, error) {
			db := datagen.NewSales(datagen.SalesConfig{FactRows: sz.coldRows, Zipf: datagen.DefaultSales.Zipf, Seed: cfg.seed})
			wl, err := workloads.SalesWithUpdates(salesSQLSeed)
			return db, wl, err
		},
		poolBytes: sz.poolBytes,
		warmup:    2,
		minRounds: 2, // 2 x 50 queries keeps p90 reportable
	})
}

// deployment is one set-up of a serving workload: a generated database,
// the advisor's design for it and a store materializing that design, warmed
// up by replaying the workload once, which builds every segment.
type deployment struct {
	db    *catalog.Database
	rec   *core.Recommendation
	defs  []*index.Def
	st    *exec.Store
	pool  *bufferpool.Pool
	dir   string
	gen   time.Duration
	tune  time.Duration
	setup time.Duration // generation, tuning, NewStore and the first pass
}

func (d *deployment) close() {
	d.st.Close()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// deploy sets the workload up once. With rp set, the first pass is
// replayed through it, checks included; otherwise it runs unchecked.
func deploy(cfg config, tr *tracer, rep *report, spec serveSpec, rp *replay) (*deployment, error) {
	d := &deployment{}
	id := tr.begin("datagen.generate", spec.name)
	t := time.Now()
	db, wl, err := spec.mkdb()
	d.gen = time.Since(t)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	d.db = db
	rec, tune, err := recommend(tr, rep, db, wl)
	if err != nil {
		return nil, err
	}
	d.rec, d.defs, d.tune = rec, designDefs(rec), tune
	id = tr.begin("exec.new_store", "")
	t = time.Now()
	d.st, err = exec.NewStore(db, d.defs)
	newStore := time.Since(t)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if spec.poolBytes > 0 {
		if d.dir, err = os.MkdirTemp(cfg.out, "spill-"); err != nil {
			return nil, err
		}
		d.pool = bufferpool.New(spec.poolBytes)
		d.st.SetDiskBacked(d.dir, d.pool)
	}
	if rp == nil {
		rp = &replay{tr: tr}
	}
	rp.store, rp.stmts = d.st, executable(wl)
	if rp.or != nil {
		// The oracle's twin database or cached answers are the benchmark's,
		// not the program's: peak_heap_mb leaves them out.
		before := liveHeap()
		if err := rp.or.prepare(tr, spec, db, rp.stmts); err != nil {
			d.close()
			return nil, err
		}
		rep.benchHeap = max(liveHeap(), before) - before
	}
	warm, err := rp.run(-spec.warmup, false, rp.stmts)
	if err != nil {
		d.close()
		return nil, err
	}
	d.setup = d.gen + tune + newStore + time.Duration(warm*float64(time.Second))
	return d, nil
}

// setupReps is how many times a serving workload is set up; setup_s and
// tune_s are medians over the set-ups, and the last set-up is the one
// measured.
const setupReps = 3

// serve sets the workload up setupReps times, then replays it against the
// last set-up in timed rounds until the measuring time is used. Every
// set-up generates a fresh database, so its Recommend call is timed the way
// advise times one, and must return the same recommendation.
func serve(cfg config, tr *tracer, rep *report, spec serveSpec) error {
	var setups, gens, tunes []float64
	var timings []core.Timing
	var firstSig string
	var d *deployment
	rp := &replay{tr: tr, rep: rep, or: &oracle{}}
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
			d = nil // no two set-ups may share the heap
		}
		rep.collect()
		var err error
		if i < setupReps-1 {
			d, err = deploy(cfg, tr, rep, spec, nil)
		} else {
			d, err = deploy(cfg, tr, rep, spec, rp)
		}
		if err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
		gens = append(gens, d.gen.Seconds())
		tunes = append(tunes, d.tune.Seconds())
		timings = append(timings, d.rec.Timing)
		if i == 0 {
			firstSig = recSignature(d.rec)
		} else {
			rep.check(recSignature(d.rec) == firstSig, "set-up %d: recommendation differs from the first set-up's", i)
			rep.check(sameCounters(d.rec.Timing, timings[0]), "set-up %d: advisor counters differ from the first set-up's", i)
		}
	}
	defer d.close()
	// Only the first warm-up pass, which builds every segment, is set-up; the
	// others bring the measured deployment to its steady state.
	for i := 1; i < spec.warmup; i++ {
		if _, err := rp.run(i-spec.warmup, false, rp.stmts); err != nil {
			return err
		}
	}

	hasWrites := rp.or.twin
	var poolBefore bufferpool.Stats
	if d.pool != nil {
		poolBefore = d.pool.Stats()
	}
	start := time.Now()
	rounds := 0
	for ; rounds < spec.minRounds || time.Since(start).Seconds() < cfg.seconds; rounds++ {
		rep.collect()
		if _, err := rp.run(rounds, true, rp.stmts); err != nil {
			return err
		}
		if d.pool != nil {
			ps := d.pool.Stats()
			rep.check(ps.PeakBytes <= d.pool.Capacity(), "round %d: pool peak %d bytes over capacity %d", rounds, ps.PeakBytes, d.pool.Capacity())
			rep.check(ps.PinnedFrames == 0, "round %d: %d frames still pinned", rounds, ps.PinnedFrames)
		}
	}

	rep.input("rows", spec.rows)
	rep.input("heap_bytes", d.db.TotalHeapBytes())
	rep.input("pool_bytes", spec.poolBytes)
	rep.input("oracle_heap_bytes", rep.benchHeap)
	rep.input("setups", setupReps)
	rep.input("rounds", rounds)
	rep.input("statements_per_round", len(rp.stmts))

	busy := make([]float64, len(rp.roundQuery))
	var busySum float64
	for i := range rp.roundQuery {
		busy[i] = rp.roundQuery[i] + rp.roundWrite[i]
		busySum += busy[i]
	}
	nst := len(rp.queryLat) + len(rp.writeLat)
	rep.addE2E("setup_s", "s", median(setups), len(setups))
	rep.addE2E("tune_s", "s", median(tunes), len(tunes))
	rep.addE2E("round_s", "s", median(busy), len(busy))
	rep.addE2E("improvement_pct", "%", d.rec.Improvement, 0)
	addLatency(rep, "query", rp.queryLat, true)
	if hasWrites {
		addLatency(rep, "write", rp.writeLat, false)
	}
	rep.addE2E("stmts_per_s", "1/s", float64(nst)/busySum, nst)

	addAdvisorLayers(rep, timings, gens, d.rec.Timing, d.rec.CandidateCount)
	rep.addLayer("exec.run_query_s", "s", median(rp.roundQuery), len(rp.roundQuery))
	if hasWrites {
		rep.addLayer("exec.run_write_s", "s", median(rp.roundWrite), len(rp.roundWrite))
	}
	rep.addLayer("exec.tuples_per_row_returned", "ratio", ratio(float64(rp.io.TuplesDecoded), float64(rp.rowsReturned)), 0)
	rep.addLayer("storage.page_reads_per_query", "count", ratio(float64(rp.io.PageReads), float64(rp.queries)), 0)
	rep.addLayer("storage.pages_decoded_per_query", "count", ratio(float64(rp.io.PagesDecoded), float64(rp.queries)), 0)
	rep.addLayer("compress.columns_decoded_per_page", "ratio", ratio(float64(rp.io.ColumnsDecoded), float64(rp.io.PagesDecoded)), 0)
	if d.pool != nil {
		ps := d.pool.Stats()
		per := func(now, before int64) float64 { return float64(now-before) / float64(nst) }
		rep.addLayer("bufferpool.hit_rate", "ratio", ratio(float64(ps.Hits-poolBefore.Hits), float64(ps.Gets-poolBefore.Gets)), 0)
		rep.addLayer("bufferpool.misses_per_stmt", "count", per(ps.Misses, poolBefore.Misses), 0)
		rep.addLayer("bufferpool.evictions_per_stmt", "count", per(ps.Evictions, poolBefore.Evictions), 0)
		rep.addLayer("bufferpool.bytes_read_per_stmt", "B", per(ps.BytesRead, poolBefore.BytesRead), 0)
		rep.addLayer("bufferpool.peak_over_capacity", "ratio", float64(ps.PeakBytes)/float64(d.pool.Capacity()), 0)
	}
	return measureDesign(cfg, tr, rep, spec.mkdb, d.defs)
}

// addLatency reports the median of a statement class's latencies and, when
// withTail, its p90, refused below the samples the percentile rule needs.
// The highest percentile the rule allows is printed as an input.
func addLatency(rep *report, class string, lat []float64, withTail bool) {
	rep.addE2E(class+"_p50_ms", "ms", 1e3*median(lat), len(lat))
	if !withTail {
		return
	}
	if allowsPercentile(len(lat), 90) {
		rep.addE2E(class+"_p90_ms", "ms", 1e3*percentile(lat, 90), len(lat))
	}
	if p, ok := tailPercentile(len(lat)); ok {
		rep.input(fmt.Sprintf("%s_p%g_ms", class, p), fmt.Sprintf("%.4f(n=%d)", 1e3*percentile(lat, p), len(lat)))
	}
}
