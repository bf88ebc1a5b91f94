package main

import (
	"fmt"
	"math/rand"
	"time"

	"consolidation/internal/bench"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
	"consolidation/internal/shard"
	"consolidation/internal/smt"
)

// news-churn: live subscriptions. A default-clustered ShardedRegistry is
// seeded with 200 news Mix queries and built (the plan); a seeded
// Add/Remove trace follows. Each event is followed by one WhereSharded
// pass over a reduced news corpus, which serves the pending query
// verbatim, and by the lazy Rebuild that consolidates it.
const (
	newsQueries = 200
	// newsPool bounds the trace: every Add takes a fresh query.
	newsPool = 600
	// newsScale reduces the corpus to 571 articles, so a pass costs about
	// what the median rebuild does and a run holds over 100 events.
	newsScale = 0.03
	// newsPlans is how many seeded sets a run builds from cold caches.
	newsPlans = 2
	// checkEvery is the event interval of reference checkpoints.
	checkEvery = 5
	// layerReps is how many layer breakdowns a traced run takes of each
	// plan's clean seeded set. The set is the same at every --seed, so the
	// breakdowns differ only by records and noise, not by live-set size.
	layerReps = 12
	// minEvents is the fewest events a run replays, even past its time:
	// the p90 metrics need at least ten samples beyond them.
	minEvents = 100
)

type newsSet struct {
	ds   engine.RecordLibrary
	pool []*lang.Program
	reg  *shard.ShardedRegistry
	live []shard.QueryID
	prog map[shard.QueryID]*lang.Program
	next int
}

func setupNews(cfg config, nq, poolN int) (*newsSet, error) {
	ds, err := bench.Dataset("news", newsScale*cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	pool, err := queries.Gen("news", "Mix", max(nq, poolN), querySeed)
	if err != nil {
		return nil, err
	}
	reg, err := shard.New(shard.Options{Registry: registryOptions(ds)})
	if err != nil {
		return nil, err
	}
	in := &newsSet{ds: ds, pool: pool, reg: reg, prog: map[shard.QueryID]*lang.Program{}}
	for i := 0; i < nq; i++ {
		if _, err := in.add(); err != nil {
			reg.Close()
			return nil, err
		}
	}
	return in, nil
}

// add subscribes the next pool query and returns the time Add took.
func (in *newsSet) add() (time.Duration, error) {
	p := in.pool[in.next]
	t0 := time.Now()
	id, err := in.reg.Add(p)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	in.next++
	in.live = append(in.live, id)
	in.prog[id] = p
	return d, nil
}

func (in *newsSet) remove(k int) (time.Duration, error) {
	id := in.live[k]
	t0 := time.Now()
	err := in.reg.Remove(id)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	in.live = append(in.live[:k], in.live[k+1:]...)
	delete(in.prog, id)
	return d, nil
}

// programs lists the live queries in live-id order.
func (in *newsSet) programs() []*lang.Program {
	progs := make([]*lang.Program, len(in.live))
	for q, id := range in.live {
		progs[q] = in.prog[id]
	}
	return progs
}

// checkLive compares a pass with WhereMany over the live set, under the
// shard-id to program correspondence cmd/live uses.
func (in *newsSet) checkLive(res *engine.ShardedResult, workers int) error {
	ref, err := engine.WhereMany(in.ds, in.programs(), engine.Options{Workers: workers})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return checkSharded(res, ref, in.live)
}

func runNews(r *run) error {
	cfg := r.cfg
	nq := scaled(newsQueries, 8, cfg.scale)
	var in *newsSet
	err := r.setups(func(i int) error {
		if in != nil {
			in.reg.Close()
		}
		var err error
		in, err = setupNews(cfg, nq, scaled(newsPool, 30, cfg.scale))
		return err
	})
	if err != nil {
		return err
	}
	defer in.reg.Close()
	r.startClock()
	// The first plan builds a second seeded set, so plan_ms has two
	// samples; the events run on the last set-up's registry.
	for i := 0; i < newsPlans; i++ {
		plan := in
		if i < newsPlans-1 {
			if plan, err = setupNews(cfg, nq, nq); err != nil {
				return err
			}
		}
		r.newsPlan(plan)
		if plan != in {
			plan.reg.Close()
		}
	}
	r.newsEvents(in, nq)
	if cfg.trace {
		r.setLayerMedians()
		r.set("shard.rebuild_ms", mean(r.samples["shard.rebuild_ms"]), len(r.samples["shard.rebuild_ms"]))
		r.set("shard.dirty_clusters_per_event", mean(r.samples["shard.dirty_clusters_per_event"]), len(r.samples["shard.dirty_clusters_per_event"]))
		return nil
	}
	r.setE2E()
	r.setMedian("admit_us_p50", "admit_us")
	r.setPct("admit_us_p90", "admit_us", 0.9)
	r.setMedian("fresh_ms_p50", "fresh_ms")
	r.setPct("fresh_ms_p90", "fresh_ms", 0.9)
	return nil
}

// newsPlan builds a seeded set from cold caches and checks its first pass.
func (r *run) newsPlan(in *newsSet) {
	cfg := r.cfg
	op := r.rec.newOp()
	s := r.rec.begin(op, 0, "shard.Flush")
	t0 := time.Now()
	_, err := in.reg.Flush()
	plan := time.Since(t0)
	r.rec.end(s)
	if !r.op(err) {
		return
	}
	r.add("plan_ms", ms(plan))
	if cfg.trace {
		r.traceNewsBuild(in)
	}
	res, err := standingPass(in.ds, in.reg, cfg.workers)
	if err == nil {
		err = in.checkLive(res, cfg.workers)
	}
	if err == nil {
		err = r.checkPassCosts(shardedCosts(res, in.live))
	}
	r.op(err)
}

// newsEvents replays the churn trace until the run's time is up. A job is
// one event as its subscriber sees it: the Add/Remove call and the pass
// that serves the change; the Rebuild that follows is the freshness time.
func (r *run) newsEvents(in *newsSet, nq int) {
	cfg := r.cfg
	reused0, pairs0 := nodeCounts(in.reg)
	splits0 := in.reg.Stats().Splits
	rng := rand.New(rand.NewSource(cfg.seed))
	for ev := 0; (ev < minEvents || r.left() > 0) && in.next < len(in.pool); ev++ {
		var admit time.Duration
		var err error
		if len(in.live) <= nq/2 || rng.Intn(2) != 0 {
			admit, err = in.add()
			r.add("shard.add_us", us(admit))
		} else {
			admit, err = in.remove(rng.Intn(len(in.live)))
			r.add("shard.remove_us", us(admit))
		}
		if !r.op(err) {
			continue
		}
		t0 := time.Now()
		res, err := standingPass(in.ds, in.reg, cfg.workers)
		pass := time.Since(t0)
		if err == nil && (ev+1)%checkEvery == 0 {
			err = in.checkLive(res, cfg.workers)
		}
		if !r.op(err) {
			continue
		}
		t0 = time.Now()
		dirty, err := in.reg.Rebuild()
		fresh := time.Since(t0)
		if err == nil && !in.reg.Snapshot().Clean() {
			err = fmt.Errorf("snapshot not clean after Rebuild")
		}
		if !r.op(err) {
			continue
		}
		r.add("admit_us", us(admit))
		r.add("pass_ms", ms(pass))
		r.add("pass_rec_s", float64(res.Records)/pass.Seconds())
		r.add("job_ms", ms(admit+pass))
		r.add("fresh_ms", ms(fresh))
		r.add("shard.rebuild_ms", ms(fresh))
		r.add("shard.dirty_clusters_per_event", float64(dirty))
	}
	if cfg.trace {
		reused, pairs := nodeCounts(in.reg)
		if d := (reused - reused0) + (pairs - pairs0); d > 0 {
			r.add("registry.nodes_reused_ratio", float64(reused-reused0)/float64(d))
		}
		r.add("shard.splits", float64(in.reg.Stats().Splits-splits0))
	}
}

// nodeCounts sums merge nodes reused and recomputed over every cluster's
// registry lifetime.
func nodeCounts(reg *shard.ShardedRegistry) (reused, pairs uint64) {
	for _, cs := range reg.ClusterStats() {
		reused += cs.Registry.NodesReused
		pairs += cs.Registry.PairsMerged
	}
	return reused, pairs
}

// traceNewsBuild records the first build's layer counts, then repeats the
// clean set's compile, pass breakdown and WhereMany reference.
func (r *run) traceNewsBuild(in *newsSet) {
	var smtQ, pairs, fallbacks, size int
	var synth time.Duration
	var ctx smt.ContextStats
	var hits, lookups float64
	trivial := 1.0
	stats := in.reg.ClusterStats()
	for _, cs := range stats {
		b := cs.Registry.LastBuild
		smtQ += b.SMTQueries
		pairs += b.PairsMerged
		fallbacks += b.VerbatimFallbacks
		size += cs.MergedSize
		ctx.Add(b.Context)
		synth += b.PrefilterTime
		hits += b.CacheHitRate * float64(b.SMTQueries)
		lookups += float64(b.SMTQueries)
		if !b.GuardTrivial {
			trivial = 0
		}
	}
	r.add("smt.queries", float64(smtQ))
	r.add("consolidate.pairs", float64(pairs))
	r.add("consolidate.verbatim_fallbacks", float64(fallbacks))
	r.add("consolidate.merged_size", float64(size))
	r.addContext(ctx)
	if lookups > 0 {
		r.add("smt.cache_hit_rate", hits/lookups)
	}
	r.add("prefilter.synth_ms", ms(synth))
	r.add("prefilter.guard_trivial", trivial)
	r.add("shard.clusters", float64(len(stats)))

	snap := in.reg.Snapshot()
	for k := 0; k < layerReps; k++ {
		op := r.rec.newOp()
		s := r.rec.begin(op, 0, "lang.Compile")
		var err error
		for _, cs := range snap.Clusters {
			if cs.Snap.Merged != nil && err == nil {
				_, err = lang.Compile(cs.Snap.Merged)
			}
		}
		r.rec.end(s)
		if !r.op(err) {
			return
		}
		r.add("lang.compile_ms", spanMs(&r.rec, s))
		if !r.op(r.traceSharded(in.ds, in.reg)) {
			return
		}
		r.traceReference(in.ds, in.reg, in.programs(), in.live)
	}
}
