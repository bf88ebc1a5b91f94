package main

import (
	"fmt"
	"time"

	"consolidation/internal/bench"
	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/queries"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
	"consolidation/internal/smt"
)

// Tweets workloads: twitter Q2 over the paper's 31,152 tweets. tweets-q2
// runs Figure 9's 50 UDFs ungated (the guard is trivial); tweets-gated
// runs 20 of them gated on followerCount at 1%, below the 30-query point
// where the guard's symbolic walk gives up and the guard turns trivial.
const (
	// querySeed fixes every workload's query set, so runs at different
	// --seed values measure the same plans over different records and
	// churn traces. At --seed 1 the inputs are those of cmd/latency and
	// cmd/live at their default seed.
	querySeed = 101

	tweetsQueries = 50
	gatedQueries  = 20
	gatedShare    = 0.01
)

type tweetSet struct {
	ds   engine.RecordLibrary
	udfs []*lang.Program
	reg  *shard.ShardedRegistry
	// ids[q] is the shard id of udfs[q].
	ids []shard.QueryID
}

func scaled(n, min int, scale float64) int {
	return max(min, int(float64(n)*scale+0.5))
}

// registryOptions configures a registry the way cmd/live does: the
// dataset prices calls, and every rebuild synthesizes an admission guard
// restricted to the dataset's lite-decode calls.
func registryOptions(ds engine.RecordLibrary) registry.Options {
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = ds
	return registry.Options{Consolidate: copts, Prefilter: guardOptions(ds)}
}

func guardOptions(ds engine.RecordLibrary) *prefilter.Options {
	pf := &prefilter.Options{Coster: ds}
	if lite, ok := ds.(engine.LiteRecordLibrary); ok {
		pf.MaxCallCost = lite.LiteCostBound()
	}
	return pf
}

// setupTweets generates the dataset and queries and seeds the standing
// set: one cap-driven cluster holding every query, flushed.
func setupTweets(cfg config, gated bool, admit func(time.Duration)) (*tweetSet, error) {
	ds, err := bench.Dataset("twitter", cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	n := scaled(tweetsQueries, 4, cfg.scale)
	if gated {
		n = scaled(gatedQueries, 4, cfg.scale)
	}
	udfs, err := queries.Gen("twitter", "Q2", n, querySeed)
	if err != nil {
		return nil, err
	}
	if gated {
		udfs = queries.Selective(udfs, "followerCount", ds.(*data.Twitter).FollowerQuantile, gatedShare, querySeed)
	}
	reg, err := shard.New(shard.Options{Registry: registryOptions(ds), MaxClusterSize: n, MinSimilarity: -1})
	if err != nil {
		return nil, err
	}
	in := &tweetSet{ds: ds, udfs: udfs, reg: reg}
	for _, p := range udfs {
		t0 := time.Now()
		id, err := reg.Add(p)
		admit(time.Since(t0))
		if err != nil {
			reg.Close()
			return nil, err
		}
		in.ids = append(in.ids, id)
	}
	if _, err := reg.Flush(); err != nil {
		reg.Close()
		return nil, err
	}
	if k := reg.NumClusters(); k != 1 {
		reg.Close()
		return nil, fmt.Errorf("standing set has %d clusters, want 1", k)
	}
	return in, nil
}

type tweetPlan struct {
	all, synth, total time.Duration
	merged            *lang.Program
	stats             *consolidate.MultiStats
	guard             *prefilter.Guard
}

// planTweets consolidates the query set and synthesizes its guard from
// cold caches, as engine.WhereConsolidated does before its pass.
func planTweets(in *tweetSet) (*tweetPlan, error) {
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = in.ds
	p := &tweetPlan{}
	t0 := time.Now()
	merged, ms, err := consolidate.All(in.udfs, copts, true, true)
	if err != nil {
		return nil, err
	}
	p.all = time.Since(t0)
	t1 := time.Now()
	p.guard = prefilter.Synthesize(merged, *guardOptions(in.ds))
	p.synth = time.Since(t1)
	p.total = time.Since(t0)
	p.merged, p.stats = merged, ms
	return p, nil
}

// jobTweets is the paper's batch job: consolidation, guard synthesis and
// one pass, from cold caches.
func jobTweets(in *tweetSet, workers int) (*engine.ConsolidatedResult, error) {
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = in.ds
	return engine.WhereConsolidated(in.ds, in.udfs, copts, engine.Options{Workers: workers})
}

// standingPass is one pass over the standing set. Later operator changes
// replace this call, not the metric definitions.
func standingPass(ds engine.RecordLibrary, reg *shard.ShardedRegistry, workers int) (*engine.ShardedResult, error) {
	return engine.WhereSharded(ds, reg, engine.Options{Workers: workers})
}

// checkSharded compares a sharded pass with the WhereMany reference under
// the id correspondence ids[q] <-> column q.
func checkSharded(res *engine.ShardedResult, ref *engine.Result, ids []shard.QueryID) error {
	if len(res.Verdicts) != len(ref.Bools) {
		return fmt.Errorf("pass returned %d records, reference %d", len(res.Verdicts), len(ref.Bools))
	}
	for i, row := range ref.Bools {
		v := res.Verdicts[i]
		if len(v) != len(ids) {
			return fmt.Errorf("record %d: %d verdicts, want %d", i, len(v), len(ids))
		}
		for q, id := range ids {
			if got, ok := v[id]; !ok || got != row[q] {
				return fmt.Errorf("record %d query %d: verdict %v, reference %v", i, q, got, row[q])
			}
		}
	}
	return nil
}

// shardedCosts returns cost per record and the mean and max notification
// latency over the queries of a sharded pass.
func shardedCosts(res *engine.ShardedResult, ids []shard.QueryID) (cost, mean, worst float64) {
	n := float64(res.Records)
	for _, id := range ids {
		l := float64(res.LatencySum[id]) / n
		mean += l
		worst = max(worst, l)
	}
	return float64(res.UDFCost) / n, mean / float64(len(ids)), worst
}

// checkPassCosts fails a pass whose deterministic costs drift.
func (r *run) checkPassCosts(cost, mean, worst float64) error {
	if err := r.same("cost_per_rec", cost); err != nil {
		return err
	}
	if err := r.same("notify_cost_mean", mean); err != nil {
		return err
	}
	return r.same("notify_cost_max", worst)
}

func runTweets(r *run, gated bool) error {
	cfg := r.cfg
	var in *tweetSet
	err := r.setups(func(i int) error {
		if in != nil {
			in.reg.Close()
		}
		var err error
		in, err = setupTweets(cfg, gated, func(d time.Duration) {
			if i == 0 {
				r.add("shard.add_us", us(d))
			}
		})
		return err
	})
	if err != nil {
		return err
	}
	defer in.reg.Close()
	ref, err := engine.WhereMany(in.ds, in.udfs, engine.Options{Workers: cfg.workers})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	n := float64(in.ds.NumRecords())
	if cfg.trace && gated {
		if err := r.guardSweep(in.ds); err != nil {
			return err
		}
	}
	r.startClock()
	for round := 0; round == 0 || r.left() > 0; round++ {
		if cfg.trace {
			r.traceTweetsRound(in)
			continue
		}
		p, err := planTweets(in)
		if err == nil {
			err = r.checkPlan(p)
		}
		if r.op(err) {
			r.add("plan_ms", ms(p.total))
		}

		t0 := time.Now()
		job, err := jobTweets(in, cfg.workers)
		d := time.Since(t0)
		if err == nil && !engine.SameResults(ref, &job.Result) {
			err = fmt.Errorf("job verdicts differ from WhereMany")
		}
		if err == nil {
			err = r.same("job_cost", float64(job.UDFCost))
		}
		if r.op(err) {
			r.add("job_ms", ms(d))
		}

		t0 = time.Now()
		res, err := standingPass(in.ds, in.reg, cfg.workers)
		d = time.Since(t0)
		if err == nil {
			err = checkSharded(res, ref, in.ids)
		}
		if err == nil {
			err = r.checkPassCosts(shardedCosts(res, in.ids))
		}
		if r.op(err) {
			r.add("pass_ms", ms(d))
			r.add("pass_rec_s", n/d.Seconds())
		}
	}
	if cfg.trace {
		r.setLayerMedians()
		return nil
	}
	r.setE2E()
	return nil
}

// guardSweep measures how the synthesized guard behaves as the gated
// query set grows from tweets-gated's size to tweets-q2's: one
// WhereConsolidated job per size, checked against WhereMany, reporting
// the records its guard admitted and the smallest size whose guard is
// trivial (0 when none is).
func (r *run) guardSweep(ds engine.RecordLibrary) error {
	trivialFrom := 0
	for q := gatedQueries; q <= tweetsQueries; q += 10 {
		n := scaled(q, 4, r.cfg.scale)
		udfs, err := queries.Gen("twitter", "Q2", n, querySeed)
		if err != nil {
			return err
		}
		udfs = queries.Selective(udfs, "followerCount", ds.(*data.Twitter).FollowerQuantile, gatedShare, querySeed)
		copts := consolidate.DefaultOptions()
		copts.FuncCoster = ds
		res, err := engine.WhereConsolidated(ds, udfs, copts, engine.Options{Workers: r.cfg.workers})
		if err == nil {
			var ref *engine.Result
			if ref, err = engine.WhereMany(ds, udfs, engine.Options{Workers: r.cfg.workers}); err == nil && !engine.SameResults(ref, &res.Result) {
				err = fmt.Errorf("guard sweep at %d queries: verdicts differ from WhereMany", n)
			}
		}
		if !r.op(err) {
			continue
		}
		r.set(fmt.Sprintf("prefilter.sweep_admitted.q%d", n), float64(res.Admitted), 1)
		if trivialFrom == 0 && (res.Guard == nil || res.Guard.Trivial) {
			trivialFrom = n
		}
	}
	r.set("prefilter.trivial_from_queries", float64(trivialFrom), 1)
	return nil
}

// checkPlan fails a plan whose deterministic outputs drift.
func (r *run) checkPlan(p *tweetPlan) error {
	if err := r.same("consolidate.merged_size", float64(lang.Size(p.merged.Body))); err != nil {
		return err
	}
	if err := r.same("smt.queries", float64(p.stats.SMTQueries)); err != nil {
		return err
	}
	return r.same("prefilter.guard_trivial", b2f(p.guard.Trivial))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// setE2E reports the end-to-end metrics from the run's samples.
func (r *run) setE2E() {
	r.setMedian("setup_s", "setup_s")
	r.setMedian("plan_ms", "plan_ms")
	r.setMedian("job_ms_p50", "job_ms")
	r.setPct("job_ms_p90", "job_ms", 0.9)
	passes := r.samples["pass_ms"]
	r.set("rec_per_s", median(r.samples["pass_rec_s"]), len(passes))
	r.setPct("pass_ms_p90", "pass_ms", 0.9)
	r.setDet("cost_per_rec")
	r.setDet("notify_cost_mean")
	r.setDet("notify_cost_max")
}

// traceTweetsRound is one round of the traced run: the plan with its layer
// timings and counts, the standing pass's layer breakdown, and the
// reference operator.
func (r *run) traceTweetsRound(in *tweetSet) {
	op := r.rec.newOp()
	root := r.rec.begin(op, 0, "op.plan")
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = in.ds
	s := r.rec.begin(op, root, "consolidate.All")
	merged, ms0, err := consolidate.All(in.udfs, copts, true, true)
	r.rec.end(s)
	if !r.op(err) {
		r.rec.end(root)
		return
	}
	r.add("consolidate.all_ms", spanMs(&r.rec, s))
	s = r.rec.begin(op, root, "prefilter.Synthesize")
	guard := prefilter.Synthesize(merged, *guardOptions(in.ds))
	r.rec.end(s)
	r.add("prefilter.synth_ms", spanMs(&r.rec, s))
	s = r.rec.begin(op, root, "lang.Compile")
	_, err = lang.Compile(merged)
	r.rec.end(s)
	r.rec.end(root)
	if !r.op(err) {
		return
	}
	r.add("lang.compile_ms", spanMs(&r.rec, s))
	r.add("consolidate.merged_size", float64(lang.Size(merged.Body)))
	r.add("consolidate.pairs", float64(ms0.Pairs))
	r.add("consolidate.verbatim_fallbacks", float64(ms0.VerbatimFallbacks()))
	r.add("smt.queries", float64(ms0.SMTQueries))
	r.add("smt.cache_hit_rate", ms0.CacheHitRate())
	r.add("smt.sat_iters", float64(ms0.Solver.SatIters))
	r.add("smt.unknowns", float64(ms0.Solver.Unknowns))
	r.addContext(ms0.Context)
	r.add("prefilter.guard_trivial", b2f(guard.Trivial))

	if !r.op(r.traceSharded(in.ds, in.reg)) {
		return
	}
	r.traceReference(in.ds, in.reg, in.udfs, in.ids)
}

// traceSharded breaks the standing pass over reg's current snapshot into
// layers, checking the replay's verdicts against the traced engine pass.
func (r *run) traceSharded(ds engine.RecordLibrary, reg *shard.ShardedRegistry) error {
	snap := reg.Snapshot()
	var last *engine.ShardedResult
	return r.traceLayers(ds,
		func(lib engine.RecordLibrary, workers int) (time.Duration, error) {
			t0 := time.Now()
			res, err := standingPass(lib, reg, workers)
			last = res
			return time.Since(t0), err
		},
		func(lib engine.RecordLibrary, op, parent int) (*stageRun, error) {
			return replaySharded(lib, r.lt, snap, engine.DefaultBatchSize, &r.rec, op, parent)
		},
		func(a *stageRun) error { return sameVerdicts(a.verdicts, last.Verdicts) })
}

// traceReference times the standing pass at full width beside the
// WhereMany reference over the same queries, and checks the one against
// the other.
func (r *run) traceReference(ds engine.RecordLibrary, reg *shard.ShardedRegistry, progs []*lang.Program, ids []shard.QueryID) {
	op := r.rec.newOp()
	s := r.rec.begin(op, 0, "engine.WhereSharded")
	res, err := standingPass(ds, reg, r.cfg.workers)
	r.rec.end(s)
	if !r.op(err) {
		return
	}
	m := r.rec.begin(op, 0, "engine.WhereMany")
	many, err := engine.WhereMany(ds, progs, engine.Options{Workers: r.cfg.workers})
	r.rec.end(m)
	if err == nil {
		err = checkSharded(res, many, ids)
	}
	if !r.op(err) {
		return
	}
	passNs, manyNs := r.rec.spans[s-1].Dur, r.rec.spans[m-1].Dur
	r.add("engine.many_rec_per_s", float64(many.Records)/(float64(manyNs)/1e9))
	r.add("engine.speedup_vs_many", float64(manyNs)/float64(passNs))
	if tot := res.Admitted + res.Rejected; tot > 0 {
		r.add("prefilter.admit_ratio", float64(res.Admitted)/float64(tot))
	}
}

func spanMs(rec *recorder, id int) float64 { return float64(rec.spans[id-1].Dur) / 1e6 }

func (r *run) addContext(ctx smt.ContextStats) {
	r.add("smt.theory_checks", float64(ctx.TheoryChecks))
	r.add("smt.ctx_memo_hit_rate", ctx.MemoHitRate())
	r.add("smt.ctx_fallbacks", float64(ctx.Fallbacks))
}
