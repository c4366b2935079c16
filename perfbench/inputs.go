package main

import (
	"fmt"
	"runtime"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/core"
	"cadb/internal/datagen"
	"cadb/internal/workload"
	"cadb/internal/workloads"
)

// sizes are the input scales of one benchmark mode.
type sizes struct {
	adviseRows int   // TPC-H lineitem rows on advise
	hotRows    int   // TPC-H lineitem rows on read-hot
	coldRows   int   // Sales fact rows on readwrite-cold
	poolBytes  int64 // buffer-pool capacity on readwrite-cold and the isolation pass
}

var (
	fullSizes  = sizes{adviseRows: 100000, hotRows: 50000, coldRows: 25000, poolBytes: 512 << 10}
	quickSizes = sizes{adviseRows: 3000, hotRows: 3000, coldRows: 2000, poolBytes: 64 << 10}
)

func sizesFor(cfg config) sizes {
	if cfg.quick {
		return quickSizes
	}
	return fullSizes
}

// budgetFrac is the advisor's space budget as a share of the heap bytes.
const budgetFrac = 0.25

var workloadsByName = map[string]func(config, *tracer, *report) error{
	"advise":         runAdvise,
	"read-hot":       runReadHot,
	"readwrite-cold": runReadWriteCold,
}

// genTPCH generates the TPC-H database and its select-intensive workload.
func genTPCH(rows int, seed int64) (*catalog.Database, *workload.Workload, error) {
	db := datagen.NewTPCH(datagen.TPCHConfig{LineitemRows: rows, Seed: seed})
	wl, err := workloads.TPCH()
	if err != nil {
		return nil, nil, err
	}
	return db, workloads.SelectIntensive(wl), nil
}

// recommend runs the advisor the way every workload does: DefaultOptions at
// a 25% budget, one worker. It returns the recommendation and its wall time,
// and records the heap the advisor holds when it returns.
func recommend(tr *tracer, rep *report, db *catalog.Database, wl *workload.Workload) (*core.Recommendation, time.Duration, error) {
	opts := core.DefaultOptions(int64(budgetFrac * float64(db.TotalHeapBytes())))
	opts.Parallelism = 1
	adv := core.New(db, wl, opts)
	id := tr.begin("core.recommend", "")
	t := time.Now()
	rec, err := adv.Recommend()
	d := time.Since(t)
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("recommend: %w", err)
	}
	rep.collect()
	runtime.KeepAlive(adv)
	return rec, d, nil
}
