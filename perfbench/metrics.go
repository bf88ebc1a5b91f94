package main

import (
	"math"
	"sort"
)

// Metric catalogue. Gate "end_to_end" and "per_layer" metrics are the ones
// BENCHMARK.json lists: every workload prints all of them, in the JSON
// result line of an untraced or a traced run respectively. Gate "report"
// metrics apply to some workloads only; they are printed by name, with
// their unit, in the human-readable lines above the result.

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Layer is the module the metric measures ("e2e" for end-to-end).
	Layer string `json:"layer"`
	// Kind is "wall" (a timing), "count" (deterministic for a seed),
	// "ratio", or "memory".
	Kind string `json:"kind"`
	Gate string `json:"gate"`
	// Bound is the end-to-end regression bound, a share of the parent's
	// median.
	Bound float64 `json:"bound,omitempty"`
	// Moves names the end-to-end metric and workload a layer metric should
	// move.
	Moves string `json:"moves,omitempty"`
	// Workloads the metric applies to; empty means all.
	Workloads []string `json:"workloads,omitempty"`
	Doc       string   `json:"doc"`
}

const (
	wTweets = "tweets-q2"
	wGated  = "tweets-gated"
	wNews   = "news-churn"
	wAgg    = "weather-agg"
)

var workloadNames = []string{wTweets, wGated, wNews, wAgg}

var catalogue = []metricDef{
	// End-to-end, tracing off.
	{Name: "setup_s", Unit: "s", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "end_to_end", Bound: 0.25,
		Doc: "median over the run's set-ups of dataset and query generation plus registry seeding, before the first timed operation"},
	{Name: "plan_ms", Unit: "ms", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "end_to_end", Bound: 0.25,
		Doc: "median time to turn the query set into a runnable consolidated plan from cold SMT caches: consolidate.All + prefilter.Synthesize (tweets), the first ShardedRegistry.Flush of the seeded set (news-churn), consolidate.MergeAggs (weather-agg)"},
	{Name: "job_ms_p50", Unit: "ms", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "end_to_end", Bound: 0.25,
		Doc: "median of one batch job with cold caches: engine.WhereConsolidated (tweets), engine.AggregateConsolidated (weather-agg); on news-churn one churn event as its subscriber sees it, the Add/Remove call and the pass that serves the change verbatim"},
	{Name: "job_ms_p90", Unit: "ms", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "end_to_end", Bound: 0.25,
		Doc: "90th percentile of the same jobs"},
	{Name: "rec_per_s", Unit: "rec/s", Better: "higher", Layer: "e2e", Kind: "wall", Gate: "end_to_end", Bound: 0.25,
		Doc: "records / median wall time of one pass over a standing, already consolidated query set: engine.WhereSharded over one cap-driven cluster (tweets), WhereSharded after each Add/Remove, before the Rebuild (news-churn), the pass part of AggregateConsolidated (weather-agg)"},
	{Name: "pass_ms_p90", Unit: "ms", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "end_to_end", Bound: 0.25,
		Doc: "90th percentile wall time of those passes"},
	{Name: "cost_per_rec", Unit: "cost/rec", Better: "lower", Layer: "e2e", Kind: "count", Gate: "end_to_end", Bound: 0.1,
		Doc: "Figure 2 abstract cost per record on the consolidated path, guard included: the standing pass (tweets), the first pass over the freshly built set (news-churn), the consolidated aggregation (weather-agg)"},
	{Name: "notify_cost_mean", Unit: "cost/rec", Better: "lower", Layer: "e2e", Kind: "count", Gate: "end_to_end", Bound: 0.1,
		Doc: "Section 8 notification latency in cost units per record, mean over queries (weather-agg: the cost per record of the one merged traversal that emits every aggregation, so mean and max equal cost_per_rec; a plan of more than one group fails)"},
	{Name: "notify_cost_max", Unit: "cost/rec", Better: "lower", Layer: "e2e", Kind: "count", Gate: "end_to_end", Bound: 0.1,
		Doc: "the same latency for the worst query"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Layer: "e2e", Kind: "memory", Gate: "end_to_end", Bound: 0.2,
		Doc: "high-water resident set size of the workload's process (VmHWM)"},
	{Name: "admit_us_p50", Unit: "us", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "report", Workloads: []string{wNews},
		Doc: "median time of one ShardedRegistry.Add/Remove call, what a subscriber blocks on"},
	{Name: "admit_us_p90", Unit: "us", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "report", Workloads: []string{wNews},
		Doc: "90th percentile of the same calls"},
	{Name: "fresh_ms_p50", Unit: "ms", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "report", Workloads: []string{wNews},
		Doc: "median time of the Rebuild after each event, until the changed query is served consolidated"},
	{Name: "fresh_ms_p90", Unit: "ms", Better: "lower", Layer: "e2e", Kind: "wall", Gate: "report", Workloads: []string{wNews},
		Doc: "90th percentile of the same rebuilds"},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Layer: "e2e", Kind: "ratio", Gate: "report",
		Doc: "failed / attempted operations; an operation fails on an error, on a verdict or window that differs from the reference operator, or on a deterministic metric that drifts within the run"},

	// Per-layer, from the traced run.
	{Name: "data.decode_ns_per_rec", Unit: "ns", Better: "lower", Layer: "data", Kind: "wall", Gate: "per_layer",
		Moves: "rec_per_s on tweets-q2, not on tweets-gated", Doc: "SetRecord time per record of the one-worker replay"},
	{Name: "data.decode_share", Unit: "ratio", Better: "lower", Layer: "data", Kind: "ratio", Gate: "per_layer",
		Moves: "upper bound of a decode-projection gain on rec_per_s, tweets-q2", Doc: "decode time / untraced one-worker pass time"},
	{Name: "data.calls_per_rec", Unit: "count", Better: "lower", Layer: "data", Kind: "count", Gate: "per_layer",
		Moves: "cost_per_rec", Doc: "library calls per record, all functions"},
	{Name: "data.call_ns_per_rec", Unit: "ns", Better: "lower", Layer: "data", Kind: "wall", Gate: "per_layer",
		Moves: "rec_per_s on tweets-q2 and news-churn", Doc: "library call time per record, all functions; per function in the report lines data.call_ns_per_rec.<fn> and data.calls_per_rec.<fn>"},
	{Name: "lang.vm_ns_per_rec", Unit: "ns", Better: "lower", Layer: "lang", Kind: "wall", Gate: "per_layer",
		Moves: "rec_per_s on tweets-q2 and news-churn", Doc: "merged-program Runner time per record minus its library calls"},
	{Name: "lang.compile_ms", Unit: "ms", Better: "lower", Layer: "lang", Kind: "wall", Gate: "per_layer",
		Moves: "plan_ms", Doc: "lang.Compile of the plan's merged program(s)"},
	{Name: "consolidate.merged_size", Unit: "count", Better: "lower", Layer: "consolidate", Kind: "count", Gate: "per_layer",
		Moves: "job_ms_p50 and cost_per_rec on tweets-q2", Doc: "AST size of the merged program(s) of the plan"},
	{Name: "smt.queries", Unit: "count", Better: "lower", Layer: "smt", Kind: "count", Gate: "per_layer",
		Moves: "plan_ms on news-churn", Doc: "SMT queries the plan issued"},
	{Name: "smt.theory_checks", Unit: "count", Better: "lower", Layer: "smt", Kind: "count", Gate: "per_layer",
		Moves: "plan_ms on news-churn", Doc: "theory checks issued by the incremental solving contexts during the plan"},
	{Name: "smt.ctx_memo_hit_rate", Unit: "ratio", Better: "higher", Layer: "smt", Kind: "ratio", Gate: "per_layer",
		Moves: "plan_ms on news-churn", Doc: "share of context checks answered by the context memo"},
	{Name: "smt.ctx_fallbacks", Unit: "count", Better: "lower", Layer: "smt", Kind: "count", Gate: "per_layer",
		Moves: "plan_ms on news-churn", Doc: "context queries delegated to the stateless solver"},
	{Name: "prefilter.admit_ratio", Unit: "ratio", Better: "lower", Layer: "prefilter", Kind: "ratio", Gate: "per_layer",
		Moves: "rec_per_s and cost_per_rec on tweets-gated", Doc: "records the admission guards admitted / records guarded; a fixed 1 on weather-agg, where no guard runs"},
	{Name: "prefilter.guard_trivial", Unit: "count", Better: "lower", Layer: "prefilter", Kind: "count", Gate: "per_layer",
		Moves: "rec_per_s on tweets-gated", Doc: "1 when the plan's guard is the trivial admit-all guard or no guard exists, else 0; a fixed 1 on weather-agg"},
	{Name: "engine.self_ns_per_rec", Unit: "ns", Better: "lower", Layer: "engine", Kind: "wall", Gate: "per_layer",
		Moves: "rec_per_s on tweets-q2", Doc: "untraced one-worker pass time minus the traced stage sum: dispatch, per-record timers, publish (engine.publish_ns_per_rec measures the publish share where a sharded pass runs)"},
	{Name: "engine.rec_per_s_w1", Unit: "rec/s", Better: "higher", Layer: "engine", Kind: "wall", Gate: "per_layer",
		Moves: "rec_per_s", Doc: "the standing pass at one worker"},
	{Name: "engine.many_rec_per_s", Unit: "rec/s", Better: "higher", Layer: "engine", Kind: "wall", Gate: "per_layer",
		Doc: "the unconsolidated reference: engine.WhereMany over the same set (AggregateMany on weather-agg); context, not a target"},
	{Name: "engine.speedup_vs_many", Unit: "ratio", Better: "higher", Layer: "engine", Kind: "ratio", Gate: "per_layer",
		Doc: "standing-pass rec/s / reference rec/s at the same worker count; context, not a target"},
	{Name: "trace.overhead", Unit: "ratio", Better: "higher", Layer: "trace", Kind: "ratio", Gate: "per_layer",
		Doc: "one-worker engine pass rec/s with the traced dataset wrapper / without it"},

	{Name: "trace.bracket_ns", Unit: "ns", Better: "lower", Layer: "trace", Kind: "wall", Gate: "report",
		Doc: "cost of one empty timer bracket, measured in place during the timing replay and removed from every stage interval"},
	{Name: "trace.stage_sum_ns_per_rec", Unit: "ns", Better: "lower", Layer: "trace", Kind: "wall", Gate: "report",
		Doc: "the timing replay's stage sum; with engine.self_ns_per_rec it rebuilds the untraced one-worker pass, 1e9 / engine.rec_per_s_w1"},
	{Name: "prefilter.trivial_from_queries", Unit: "count", Better: "higher", Layer: "prefilter", Kind: "count", Gate: "report", Workloads: []string{wGated},
		Moves: "rec_per_s on tweets-gated", Doc: "smallest gated Q2 query count, of 20, 30, 40, 50, whose synthesized guard is trivial (0: none); the report lines prefilter.sweep_admitted.q<n> give the records each admitted"},
	{Name: "data.lite_ns_per_rec", Unit: "ns", Better: "lower", Layer: "data", Kind: "wall", Gate: "report", Workloads: []string{wGated},
		Moves: "rec_per_s on tweets-gated", Doc: "SetRecordLiteSpan time per record (per-record SetRecordLite is an index store, counted in the guard stage)"},
	{Name: "prefilter.synth_ms", Unit: "ms", Better: "lower", Layer: "prefilter", Kind: "wall", Gate: "report", Workloads: []string{wTweets, wGated, wNews},
		Moves: "plan_ms on tweets-gated", Doc: "prefilter.Synthesize in the plan (news-churn: summed over the first build's clusters)"},
	{Name: "prefilter.guard_ns_per_rec", Unit: "ns", Better: "lower", Layer: "prefilter", Kind: "wall", Gate: "report", Workloads: []string{wGated},
		Moves: "rec_per_s on tweets-gated", Doc: "guard stage time per guarded record, its lite calls included"},
	{Name: "consolidate.all_ms", Unit: "ms", Better: "lower", Layer: "consolidate", Kind: "wall", Gate: "report", Workloads: []string{wTweets, wGated},
		Moves: "plan_ms and job_ms_p50 on tweets-q2", Doc: "consolidate.All in the plan"},
	{Name: "consolidate.pairs", Unit: "count", Better: "lower", Layer: "consolidate", Kind: "count", Gate: "report", Workloads: []string{wTweets, wGated, wNews},
		Moves: "plan_ms on tweets-q2", Doc: "pairwise merges of the plan"},
	{Name: "consolidate.verbatim_fallbacks", Unit: "count", Better: "lower", Layer: "consolidate", Kind: "count", Gate: "report", Workloads: []string{wTweets, wGated, wNews},
		Moves: "cost_per_rec on tweets-q2", Doc: "Ω fuel exhaustions (degraded plan)"},
	{Name: "consolidate.agg_merge_ms", Unit: "ms", Better: "lower", Layer: "consolidate", Kind: "wall", Gate: "report", Workloads: []string{wAgg},
		Moves: "job_ms_p50 on weather-agg", Doc: "consolidate.MergeAggs"},
	{Name: "consolidate.agg_hom_groups", Unit: "count", Better: "higher", Layer: "consolidate", Kind: "count", Gate: "report", Workloads: []string{wAgg},
		Moves: "job_ms_p50 on weather-agg", Doc: "merged groups that run the homomorphic partial/combine split"},
	{Name: "smt.cache_hit_rate", Unit: "ratio", Better: "higher", Layer: "smt", Kind: "ratio", Gate: "report", Workloads: []string{wTweets, wGated, wNews},
		Moves: "plan_ms and fresh_ms_p50 on news-churn", Doc: "share of SMT queries answered by the shared query cache"},
	{Name: "smt.sat_iters", Unit: "count", Better: "lower", Layer: "smt", Kind: "count", Gate: "report", Workloads: []string{wTweets, wGated},
		Moves: "plan_ms", Doc: "lazy SMT iterations (consolidate.MultiStats)"},
	{Name: "smt.unknowns", Unit: "count", Better: "lower", Layer: "smt", Kind: "count", Gate: "report", Workloads: []string{wTweets, wGated},
		Moves: "cost_per_rec", Doc: "verdicts the solver budgets left undecided"},
	{Name: "shard.add_us", Unit: "us", Better: "lower", Layer: "shard", Kind: "wall", Gate: "report", Workloads: []string{wTweets, wGated, wNews},
		Moves: "admit_us_p50/admit_us_p90", Doc: "median ShardedRegistry.Add (tweets: the seeding Adds of the first set-up)"},
	{Name: "shard.remove_us", Unit: "us", Better: "lower", Layer: "shard", Kind: "wall", Gate: "report", Workloads: []string{wNews},
		Moves: "admit_us_p50/admit_us_p90", Doc: "median ShardedRegistry.Remove"},
	{Name: "shard.rebuild_ms", Unit: "ms", Better: "lower", Layer: "shard", Kind: "wall", Gate: "report", Workloads: []string{wNews},
		Moves: "fresh_ms_p50/fresh_ms_p90 on news-churn", Doc: "mean ShardedRegistry.Rebuild per event"},
	{Name: "shard.dirty_clusters_per_event", Unit: "count", Better: "lower", Layer: "shard", Kind: "count", Gate: "report", Workloads: []string{wNews},
		Moves: "fresh_ms_p50/fresh_ms_p90 on news-churn", Doc: "clusters each Rebuild re-consolidated"},
	{Name: "shard.clusters", Unit: "count", Better: "lower", Layer: "shard", Kind: "count", Gate: "report", Workloads: []string{wNews},
		Moves: "fresh_ms_p50/fresh_ms_p90 on news-churn", Doc: "clusters after the first build"},
	{Name: "shard.splits", Unit: "count", Better: "lower", Layer: "shard", Kind: "count", Gate: "report", Workloads: []string{wNews},
		Moves: "fresh_ms_p90 on news-churn", Doc: "rebalance splits over one epoch's trace"},
	{Name: "registry.nodes_reused_ratio", Unit: "ratio", Better: "higher", Layer: "registry", Kind: "ratio", Gate: "report", Workloads: []string{wNews},
		Moves: "fresh_ms_p50/fresh_ms_p90 on news-churn", Doc: "merge nodes served from the tree cache / nodes needed, over the event rebuilds"},
	{Name: "engine.publish_ns_per_rec", Unit: "ns", Better: "lower", Layer: "engine", Kind: "wall", Gate: "report", Workloads: []string{wTweets, wGated, wNews},
		Moves: "rec_per_s on tweets-q2", Doc: "the replay's building of per-record verdict maps, as WhereSharded's publish stage does; part of engine.self_ns_per_rec"},
	{Name: "data.key_ns_per_rec", Unit: "ns", Better: "lower", Layer: "data", Kind: "wall", Gate: "report", Workloads: []string{wAgg},
		Moves: "rec_per_s on weather-agg", Doc: "window key extraction per record, its library call included"},
	{Name: "engine.agg_many_rec_per_s", Unit: "rec/s", Better: "higher", Layer: "engine", Kind: "wall", Gate: "report", Workloads: []string{wAgg},
		Doc: "the AggregateMany reference; context for job_ms_p50 on weather-agg"},
}

func gated(gate string) []metricDef {
	var out []metricDef
	for _, m := range catalogue {
		if m.Gate == gate {
			out = append(out, m)
		}
	}
	return out
}

func lookup(name string) (metricDef, bool) {
	for _, m := range catalogue {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// median is the middle value (mean of the middle two for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// pct is the q-quantile by the nearest-rank method.
func pct(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
