package main

import (
	"fmt"
	"time"

	"cadb/internal/catalog"
	"cadb/internal/core"
	"cadb/internal/index"
	"cadb/internal/workload"
)

// recSignature identifies a recommendation exactly: its design and costs.
func recSignature(rec *core.Recommendation) string {
	return fmt.Sprintf("%s|base=%v|total=%v|size=%d", rec.Config, rec.BaseCost, rec.TotalCost, rec.SizeBytes)
}

// runAdvise times core.Advisor.Recommend on a freshly generated database per
// round, so every round pays the lazy catalog statistics and the sampling.
// Generation is timed separately and reported as setup_s; round_s is the
// two together. After the rounds the recommended design is built once.
func runAdvise(cfg config, tr *tracer, rep *report) error {
	sz := sizesFor(cfg)
	const warmup, minRounds = 1, 5
	rep.input("lineitem_rows", sz.adviseRows)
	rep.input("budget_frac", budgetFrac)
	rep.input("parallelism", 1)

	var gens, tunes, rounds []float64
	var timings []core.Timing
	// Round 0's recommendation is kept only as the values later rounds are
	// compared with and its design: the Recommendation itself references its
	// database, which would stay live and count in peak_heap_mb.
	var firstSig string
	var firstDefs []*index.Def
	var firstTiming core.Timing
	var improvement float64
	var candidates int
	var start time.Time
	for r := -warmup; ; r++ {
		if r == 0 {
			start = time.Now()
		}
		if r >= minRounds && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		tr.setRound(r)
		rep.collect()
		id := tr.begin("datagen.generate", "tpch")
		t := time.Now()
		db, wl, err := genTPCH(sz.adviseRows, cfg.seed)
		gen := time.Since(t)
		tr.end(id)
		if err != nil {
			return err
		}
		rep.collect()
		rec, tune, err := recommend(tr, rep, db, wl)
		if err != nil {
			return err
		}
		budget := int64(budgetFrac * float64(db.TotalHeapBytes()))
		rep.check(rec.SizeBytes <= budget, "round %d: design %d bytes over budget %d", r, rec.SizeBytes, budget)
		if firstSig == "" {
			firstSig, firstTiming = recSignature(rec), rec.Timing
			improvement, candidates = rec.Improvement, rec.CandidateCount
			firstDefs = designDefs(rec)
			rep.input("design_bytes_est", rec.SizeBytes)
		} else {
			rep.check(recSignature(rec) == firstSig, "round %d: recommendation differs from the first round's", r)
			rep.check(sameCounters(rec.Timing, firstTiming), "round %d: advisor counters differ from the first round's", r)
		}
		if r < 0 {
			continue
		}
		gens = append(gens, gen.Seconds())
		tunes = append(tunes, tune.Seconds())
		rounds = append(rounds, (gen + tune).Seconds())
		timings = append(timings, rec.Timing)
	}
	rep.input("rounds", len(tunes))
	rep.addE2E("setup_s", "s", median(gens), len(gens))
	rep.addE2E("tune_s", "s", median(tunes), len(tunes))
	rep.addE2E("round_s", "s", median(rounds), len(rounds))
	rep.addE2E("improvement_pct", "%", improvement, 0)
	addAdvisorLayers(rep, timings, gens, firstTiming, candidates)
	return measureDesign(cfg, tr, rep, func() (*catalog.Database, *workload.Workload, error) {
		return genTPCH(sz.adviseRows, cfg.seed)
	}, firstDefs)
}

// sameCounters reports whether two Recommend runs did exactly the same work.
func sameCounters(a, b core.Timing) bool {
	return a.SampleCFCalls == b.SampleCFCalls && a.AdmittedDeduced == b.AdmittedDeduced &&
		a.AdmittedSampled == b.AdmittedSampled && a.WhatIfEvaluations == b.WhatIfEvaluations &&
		a.DeltaStatements == b.DeltaStatements && a.ReusedStatements == b.ReusedStatements &&
		a.CostCacheHits == b.CostCacheHits && a.CostCacheMisses == b.CostCacheMisses &&
		a.Refinements == b.Refinements
}

// addAdvisorLayers reports the advisor's per-layer split: the medians of the
// public Recommendation.Timing durations over the rounds given, and the
// exact counters t and candidate count of one recommendation (on advise,
// every round's counters must equal them).
func addAdvisorLayers(rep *report, ts []core.Timing, gens []float64, t core.Timing, candidates int) {
	med := func(f func(core.Timing) time.Duration) float64 {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = f(t).Seconds()
		}
		return median(xs)
	}
	n := len(ts)
	rep.addLayer("datagen.generate_s", "s", median(gens), len(gens))
	rep.addLayer("core.candidate_gen_s", "s", med(func(t core.Timing) time.Duration { return t.CandidateGen }), n)
	rep.addLayer("sizeest.estimate_s", "s", med(func(t core.Timing) time.Duration { return t.EstimateAll }), n)
	rep.addLayer("sampling.sample_build_s", "s", med(func(t core.Timing) time.Duration { return t.SampleBuild }), n)
	rep.addLayer("sizing.plan_solve_s", "s", med(func(t core.Timing) time.Duration { return t.PlanSolve }), n)
	rep.addLayer("sizeest.plan_execute_s", "s", med(func(t core.Timing) time.Duration { return t.PlanExecute }), n)
	rep.addLayer("optimizer.enumerate_s", "s", med(func(t core.Timing) time.Duration { return t.Enumerate - t.Refine }), n)
	rep.addLayer("core.refine_s", "s", med(func(t core.Timing) time.Duration { return t.Refine }), n)

	rep.addLayer("estimator.samplecf_calls", "count", float64(t.SampleCFCalls), 0)
	rep.addLayer("sizeest.admit_deduced_ratio", "ratio",
		ratio(float64(t.AdmittedDeduced), float64(t.AdmittedDeduced+t.AdmittedSampled)), 0)
	rep.addLayer("optimizer.whatif_evals", "count", float64(t.WhatIfEvaluations), 0)
	rep.addLayer("optimizer.stmt_reuse_ratio", "ratio",
		ratio(float64(t.ReusedStatements), float64(t.ReusedStatements+t.DeltaStatements)), 0)
	rep.addLayer("optimizer.cost_cache_hit_ratio", "ratio",
		ratio(float64(t.CostCacheHits), float64(t.CostCacheHits+t.CostCacheMisses)), 0)
	rep.addLayer("core.candidates", "count", float64(candidates), 0)
	rep.addLayer("core.refinements", "count", float64(t.Refinements), 0)
}
