package main

import (
	"fmt"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
)

// weather-agg: six keyed 12-hour windowed aggregations over four days of
// hourly observations from the paper's 500 weather stations — the only
// workload that runs AggregateConsolidated, MergeAggs and the homomorphic
// partial/combine split.
const (
	aggCount    = 6
	aggWindow   = 12
	aggStations = 500
	aggHours    = 96
)

type aggSet struct {
	ds   engine.RecordLibrary
	aggs []*lang.AggProgram
}

func setupAgg(cfg config) (*aggSet, error) {
	ds := data.GenWeatherStream(data.WeatherStreamConfig{
		Cities: scaled(aggStations, 8, cfg.scale), Hours: aggHours, Seed: 1 + cfg.seed,
	})
	aggs, err := queries.GenAgg("weather", aggCount, aggWindow, true, querySeed)
	if err != nil {
		return nil, err
	}
	return &aggSet{ds: ds, aggs: aggs}, nil
}

func aggOptions(ds engine.RecordLibrary) consolidate.Options {
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = ds
	return copts
}

// aggJob is the batch job: merge from cold caches, then the consolidated
// pass. Later operator changes replace this call, not the metrics.
func aggJob(in *aggSet, lib engine.RecordLibrary, copts consolidate.Options, workers int) (*engine.ConsolidatedAggResult, error) {
	return engine.AggregateConsolidated(lib, in.aggs, copts, engine.Options{Workers: workers})
}

// aggCosts returns cost per record and the mean and worst notification
// latency over the aggregations. Every generated aggregation shares one
// window spec, so MergeAggs puts them all in one group and one merged
// traversal emits them all: each one's latency is that traversal's cost
// per record. A plan of more groups fails the operation, since the
// engine reports no per-group cost to split the latency by.
func aggCosts(res *engine.ConsolidatedAggResult) (cost, mean, worst float64, err error) {
	if len(res.Groups) != 1 {
		return 0, 0, 0, fmt.Errorf("%d merged groups, want 1", len(res.Groups))
	}
	cost = float64(res.UDFCost) / float64(res.Records)
	return cost, cost, cost, nil
}

func runAgg(r *run) error {
	cfg := r.cfg
	var in *aggSet
	err := r.setups(func(int) error {
		var err error
		in, err = setupAgg(cfg)
		return err
	})
	if err != nil {
		return err
	}
	ref, err := engine.AggregateMany(in.ds, in.aggs, engine.Options{Workers: cfg.workers})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.startClock()
	for round := 0; round == 0 || r.left() > 0; round++ {
		if cfg.trace {
			r.traceAggRound(in, ref)
			continue
		}
		t0 := time.Now()
		groups, err := consolidate.MergeAggs(in.aggs, aggOptions(in.ds))
		d := time.Since(t0)
		if err == nil {
			err = r.same("consolidate.merged_size", float64(mergedAggSize(groups)))
		}
		if r.op(err) {
			r.add("plan_ms", ms(d))
		}

		t0 = time.Now()
		res, err := aggJob(in, in.ds, aggOptions(in.ds), cfg.workers)
		d = time.Since(t0)
		if err == nil && !engine.SameAggResults(ref, &res.AggResult) {
			err = fmt.Errorf("windows differ from AggregateMany")
		}
		if err == nil {
			var cost, mean, worst float64
			if cost, mean, worst, err = aggCosts(res); err == nil {
				err = r.checkPassCosts(cost, mean, worst)
			}
		}
		if r.op(err) {
			r.add("job_ms", ms(d))
			r.add("pass_ms", ms(res.TotalTime))
			r.add("pass_rec_s", float64(res.Records)/res.TotalTime.Seconds())
		}
	}
	if cfg.trace {
		r.setLayerMedians()
		return nil
	}
	r.setE2E()
	return nil
}

func mergedAggSize(groups []*consolidate.AggGroup) int {
	size := 0
	for _, g := range groups {
		size += lang.Size(g.Fold.Body) + lang.Size(g.Emit.Body)
	}
	return size
}

// traceAggRound is one traced round: MergeAggs with its counts, compiling
// the merged programs, the pass breakdown and the AggregateMany reference.
func (r *run) traceAggRound(in *aggSet, ref *engine.AggResult) {
	op := r.rec.newOp()
	root := r.rec.begin(op, 0, "op.plan")
	s := r.rec.begin(op, root, "consolidate.MergeAggs")
	groups, err := consolidate.MergeAggs(in.aggs, aggOptions(in.ds))
	r.rec.end(s)
	if !r.op(err) {
		r.rec.end(root)
		return
	}
	r.add("consolidate.agg_merge_ms", spanMs(&r.rec, s))
	c := r.rec.begin(op, root, "lang.Compile")
	for _, g := range groups {
		if _, err = lang.Compile(g.Fold); err == nil {
			_, err = lang.Compile(g.Emit)
		}
	}
	r.rec.end(c)
	r.rec.end(root)
	if !r.op(err) {
		return
	}
	r.add("lang.compile_ms", spanMs(&r.rec, c))
	var smtQ, hom int
	var ctx smt.ContextStats
	for _, g := range groups {
		smtQ += g.Stats.SMTQueries
		ctx.Add(g.Stats.Context)
		if g.Homomorphic {
			hom++
		}
	}
	r.add("smt.queries", float64(smtQ))
	r.addContext(ctx)
	r.add("consolidate.merged_size", float64(mergedAggSize(groups)))
	r.add("consolidate.agg_hom_groups", float64(hom))
	// No guard runs on aggregation passes: every record is admitted. Both
	// values are fixed stand-ins that keep the per-layer set uniform.
	r.add("prefilter.guard_trivial", 1)
	r.add("prefilter.admit_ratio", 1)

	// The traced passes share one warm SMT cache: only their pass time,
	// which excludes the merge, is used.
	copts := aggOptions(in.ds)
	copts.Cache = smt.NewCache(0)
	err = r.traceLayers(in.ds,
		func(lib engine.RecordLibrary, workers int) (time.Duration, error) {
			res, err := aggJob(in, lib, copts, workers)
			if err != nil {
				return 0, err
			}
			return res.TotalTime, nil
		},
		func(lib engine.RecordLibrary, op, parent int) (*stageRun, error) {
			return replayAgg(lib, r.lt, groups, engine.DefaultBatchSize, &r.rec, op, parent)
		}, nil)
	if !r.op(err) {
		return
	}

	op = r.rec.newOp()
	s = r.rec.begin(op, 0, "engine.AggregateConsolidated")
	res, err := aggJob(in, in.ds, copts, r.cfg.workers)
	r.rec.end(s)
	if err == nil && !engine.SameAggResults(ref, &res.AggResult) {
		err = fmt.Errorf("windows differ from AggregateMany")
	}
	if !r.op(err) {
		return
	}
	s = r.rec.begin(op, 0, "engine.AggregateMany")
	many, err := engine.AggregateMany(in.ds, in.aggs, engine.Options{Workers: r.cfg.workers})
	r.rec.end(s)
	if !r.op(err) {
		return
	}
	manyRate := float64(many.Records) / many.TotalTime.Seconds()
	r.add("engine.many_rec_per_s", manyRate)
	r.add("engine.agg_many_rec_per_s", manyRate)
	r.add("engine.speedup_vs_many", float64(many.TotalTime)/float64(res.TotalTime))
}
