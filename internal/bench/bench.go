// Package bench is the experiment harness behind Figures 9 and 10: it
// generates a query family, executes it with both the whereMany and the
// whereConsolidated operators over the same dataset, validates that the two
// select exactly the same records, and reports the UDF-level and total
// speedups the paper plots.
package bench

import (
	"fmt"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/data"
	"consolidation/internal/engine"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
)

// Config describes one experiment (one pair of bars in Figure 9, or one
// point on Figure 10's x-axis).
type Config struct {
	Domain string
	Family string
	// NumUDFs is the number of queries to consolidate; the paper uses 50
	// for Figure 9 and sweeps 10..300 for Figure 10.
	NumUDFs int
	// Scale shrinks the dataset relative to the paper's full size (1.0);
	// speedups are size-independent, so benchmarks default to small scales.
	Scale float64
	Seed  int64
	// Workers for the engine; 0 means GOMAXPROCS.
	Workers int
}

// Outcome is one experiment's measurements.
type Outcome struct {
	Config
	Records int

	ManyUDFCost int64
	ConsUDFCost int64
	ManyUDFTime time.Duration
	ConsUDFTime time.Duration
	ManyTotal   time.Duration
	ConsTotal   time.Duration // execution only
	Consolidate time.Duration // compile time
	MergedSize  int
	SMTQueries  int

	// CacheHitRate is the fraction of SMT queries answered by the shared
	// solver cache during consolidation, in [0,1]; CacheEntries is the
	// cache's final size. Cross-pair sharing shows up here: every hit
	// above what a single pair would self-hit came from another pair or
	// an earlier divide-and-conquer level.
	CacheHitRate float64
	CacheEntries int

	// Context aggregates the per-pair incremental solving contexts: how
	// many checks the verdict memo answered, how often Tseitin encodings
	// and learned clauses were reused, and how often the boolean path fell
	// back to stateless solving.
	Context smt.ContextStats

	// ManyMeanLatency / ConsMeanLatency are the mean notification
	// latencies (cost units, averaged over queries and records) under each
	// operator — the Section 8 latency measurement.
	ManyMeanLatency float64
	ConsMeanLatency float64

	// Agree is true when both operators selected identical records.
	Agree bool
}

// UDFSpeedup is the paper's dark bar: UDF execution time ratio.
func (o *Outcome) UDFSpeedup() float64 {
	if o.ConsUDFTime <= 0 {
		return 0
	}
	return float64(o.ManyUDFTime) / float64(o.ConsUDFTime)
}

// CostSpeedup is the engine-independent ratio of abstract UDF costs.
func (o *Outcome) CostSpeedup() float64 {
	if o.ConsUDFCost <= 0 {
		return 0
	}
	return float64(o.ManyUDFCost) / float64(o.ConsUDFCost)
}

// TotalSpeedup is the paper's light bar: total job time including
// consolidation.
func (o *Outcome) TotalSpeedup() float64 {
	den := o.ConsTotal + o.Consolidate
	if den <= 0 {
		return 0
	}
	return float64(o.ManyTotal) / float64(den)
}

// Dataset instantiates a domain's dataset at the given scale of the
// paper's full size.
func Dataset(domain string, scale float64, seed int64) (engine.RecordLibrary, error) {
	if scale <= 0 {
		scale = 1
	}
	scaleN := func(n int, min int) int {
		v := int(float64(n) * scale)
		if v < min {
			v = min
		}
		return v
	}
	switch domain {
	case "weather":
		cfg := data.DefaultWeatherConfig()
		cfg.Cities = scaleN(cfg.Cities, 10)
		cfg.Seed += seed
		return data.GenWeather(cfg), nil
	case "flight":
		cfg := data.DefaultFlightConfig()
		cfg.Airlines = scaleN(cfg.Airlines, 10)
		cfg.Seed += seed
		return data.GenFlight(cfg), nil
	case "news":
		cfg := data.DefaultNewsConfig()
		cfg.Articles = scaleN(cfg.Articles, 50)
		cfg.Seed += seed
		return data.GenNews(cfg), nil
	case "twitter":
		cfg := data.DefaultTwitterConfig()
		cfg.Tweets = scaleN(cfg.Tweets, 50)
		cfg.Seed += seed
		return data.GenTwitter(cfg), nil
	case "stock":
		cfg := data.DefaultStockConfig()
		cfg.Companies = scaleN(cfg.Companies, 5)
		cfg.Days = scaleN(cfg.Days, 30)
		cfg.Seed += seed
		return data.GenStock(cfg), nil
	}
	return nil, fmt.Errorf("bench: unknown domain %q", domain)
}

// Run executes one experiment.
func Run(cfg Config) (*Outcome, error) {
	if cfg.NumUDFs == 0 {
		cfg.NumUDFs = 50
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	ds, err := Dataset(cfg.Domain, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	udfs, err := queries.Gen(cfg.Domain, cfg.Family, cfg.NumUDFs, 100+cfg.Seed)
	if err != nil {
		return nil, err
	}
	eopts := engine.Options{Workers: cfg.Workers}

	many, err := engine.WhereMany(ds, udfs, eopts)
	if err != nil {
		return nil, fmt.Errorf("bench: whereMany: %w", err)
	}
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = ds
	// One shared query cache across all pairwise merges: the divide-and-
	// conquer levels repeat many entailment queries, which the cache then
	// absorbs — and unlike a shared solver it keeps the pair workers
	// parallel (each gets a fresh solver backed by this cache).
	copts.Cache = smt.NewCache(0)
	cons, err := engine.WhereConsolidated(ds, udfs, copts, eopts)
	if err != nil {
		return nil, fmt.Errorf("bench: whereConsolidated: %w", err)
	}

	meanLat := func(m *engine.Result) float64 {
		if m.UDFs == 0 {
			return 0
		}
		var sum float64
		for q := 0; q < m.UDFs; q++ {
			sum += m.MeanLatency(q)
		}
		return sum / float64(m.UDFs)
	}
	return &Outcome{
		Config:      cfg,
		Records:     many.Records,
		ManyUDFCost: many.UDFCost,
		ConsUDFCost: cons.UDFCost,
		ManyUDFTime: many.UDFTime,
		ConsUDFTime: cons.UDFTime,
		ManyTotal:   many.TotalTime,
		ConsTotal:   cons.TotalTime,
		Consolidate: cons.ConsolidateTime,
		MergedSize:  cons.Multi.OutputSize,
		SMTQueries:  cons.Multi.SMTQueries,

		CacheHitRate: cons.Multi.CacheHitRate(),
		CacheEntries: cons.Multi.Cache.Entries,
		Context:      cons.Multi.Context,

		ManyMeanLatency: meanLat(many),
		ConsMeanLatency: meanLat(&cons.Result),

		Agree: engine.SameResults(many, &cons.Result),
	}, nil
}

// Summary is the machine-readable form of one experiment, emitted by the
// report commands' -json mode: one object per family with the speedups,
// consolidation time and SMT cache behaviour — the numbers the paper's
// figures plot, in a form scripts can diff across runs.
type Summary struct {
	Domain  string `json:"domain"`
	Family  string `json:"family"`
	NumUDFs int    `json:"num_udfs"`
	Records int    `json:"records"`

	UDFSpeedup   float64 `json:"udf_speedup"`
	CostSpeedup  float64 `json:"cost_speedup"`
	TotalSpeedup float64 `json:"total_speedup"`

	ManyUDFMillis float64 `json:"many_udf_ms"`
	ConsUDFMillis float64 `json:"cons_udf_ms"`
	ConsolidateMS float64 `json:"consolidation_ms"`
	MergedSize    int     `json:"merged_size"`
	SMTQueries    int     `json:"smt_queries"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	CacheEntries  int     `json:"cache_entries"`

	// Incremental solving-context amortization (zero when contexts are
	// disabled): checks per context, memo/shared-cache hits, CNF memo
	// reuse, and stateless fallbacks.
	CtxContexts    int     `json:"ctx_contexts"`
	CtxChecks      int     `json:"ctx_checks"`
	CtxMemoHits    int     `json:"ctx_memo_hits"`
	CtxMemoRate    float64 `json:"ctx_memo_hit_rate"`
	CtxSharedHits  int     `json:"ctx_shared_hits"`
	CtxCNFMemoHits int     `json:"ctx_cnf_memo_hits"`
	CtxClauseReuse int     `json:"ctx_clause_reuses"`
	CtxSATChecks   int     `json:"ctx_sat_checks"`
	CtxFallbacks   int     `json:"ctx_fallbacks"`

	ManyMeanLat float64 `json:"many_mean_latency"`
	ConsMeanLat float64 `json:"cons_mean_latency"`

	Agree bool `json:"agree"`
}

// Summary converts the outcome for -json output.
func (o *Outcome) Summary() Summary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Summary{
		Domain:  o.Domain,
		Family:  o.Family,
		NumUDFs: o.NumUDFs,
		Records: o.Records,

		UDFSpeedup:   o.UDFSpeedup(),
		CostSpeedup:  o.CostSpeedup(),
		TotalSpeedup: o.TotalSpeedup(),

		ManyUDFMillis: ms(o.ManyUDFTime),
		ConsUDFMillis: ms(o.ConsUDFTime),
		ConsolidateMS: ms(o.Consolidate),
		MergedSize:    o.MergedSize,
		SMTQueries:    o.SMTQueries,
		CacheHitRate:  o.CacheHitRate,
		CacheEntries:  o.CacheEntries,

		CtxContexts:    o.Context.Contexts,
		CtxChecks:      o.Context.Checks,
		CtxMemoHits:    o.Context.MemoHits,
		CtxMemoRate:    o.Context.MemoHitRate(),
		CtxSharedHits:  o.Context.SharedHits,
		CtxCNFMemoHits: o.Context.CNFMemoHits,
		CtxClauseReuse: o.Context.ClauseReuses,
		CtxSATChecks:   o.Context.SATChecks,
		CtxFallbacks:   o.Context.Fallbacks,

		ManyMeanLat: o.ManyMeanLatency,
		ConsMeanLat: o.ConsMeanLatency,

		Agree: o.Agree,
	}
}

// LatencySummary is the machine-readable form of one cmd/latency run:
// per-record execution throughput of both operators plus the latency
// headline. ConsRecordsPerSec is the PR-trajectory throughput metric —
// records divided by wall time spent inside UDF evaluation of the merged
// program — and is what benchguard's throughput gate compares across
// commits. Throughput IS a property of the runner, so the gate uses a
// loose tolerance; the metric exists to catch gross executor
// regressions (a lost fusion, a re-introduced per-record allocation),
// not scheduler noise.
type LatencySummary struct {
	Domain  string `json:"domain"`
	Family  string `json:"family"`
	NumUDFs int    `json:"num_udfs"`
	Records int    `json:"records"`

	// Execution shape: worker count and records-per-batch of the measured
	// passes, and the CPUs the host exposed (GOMAXPROCS at run time).
	// Scaling gates are CPU-aware — a baseline recorded on an 8-core box
	// must not fail a 1-core container that physically cannot scale.
	Workers   int `json:"workers,omitempty"`
	BatchSize int `json:"batch_size,omitempty"`
	CPUs      int `json:"cpus,omitempty"`

	// Scaling, when present, is the multi-core dispatch trajectory: the
	// consolidated operator's whole-pass throughput (records over wall
	// clock, best of -reps) at each -scaling worker count, same dataset
	// and merged program throughout. Wall clock — not summed UDF time,
	// which only grows with workers — is the scaling metric.
	Scaling []ScalingPoint `json:"scaling,omitempty"`

	ManyRecordsPerSec float64 `json:"many_records_per_sec"`
	ConsRecordsPerSec float64 `json:"cons_records_per_sec"`
	ManyUDFMillis     float64 `json:"many_udf_ms"`
	ConsUDFMillis     float64 `json:"cons_udf_ms"`

	// WorseQueries counts query positions whose mean notification
	// latency increased under consolidation (Section 8's caveat).
	WorseQueries int `json:"worse_queries"`

	// Pre-filter stage (predicate pushdown ahead of the merged VM).
	// Selectivity is the requested admitted fraction (1 = ungated
	// workload); Admitted/Rejected are the consolidated operator's guard
	// verdict counts, and MeasuredSelectivity = Admitted/Records. A
	// trivial guard means synthesis found no cheap necessary condition
	// and the stage was skipped entirely.
	Selectivity         float64 `json:"selectivity"`
	Admitted            int     `json:"admitted"`
	Rejected            int     `json:"rejected"`
	MeasuredSelectivity float64 `json:"measured_selectivity"`
	GuardTrivial        bool    `json:"guard_trivial"`
	GuardCost           int64   `json:"guard_cost"`
	PrefilterMS         float64 `json:"prefilter_ms"`

	Agree bool `json:"agree"`
}

// ScalingPoint is one worker count's measured whole-pass throughput.
type ScalingPoint struct {
	Workers       int     `json:"workers"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// ChurnSummary is the machine-readable form of one cmd/live -sharded run:
// the similarity-sharded registry's admission-latency SLO at large N, its
// per-event rebuild stalls, and a small-N whole-pass throughput duel
// against the single global registry. Two of its fields are trajectory
// gates for benchguard:
//
//   - AdmitGain: the from-scratch-amortized global rebuild (measured at
//     BaselineN, a size where from-scratch is still tractable) divided by
//     the sharded Add/Remove p99. From-scratch cost only grows with N, so
//     BaselineN << N makes the recorded gain a LOWER BOUND on the true
//     ratio at N — the gate asks for >= 5x.
//   - ShardedRecordsPerSec vs GlobalRecordsPerSec at ThroughputN: the
//     price of splitting one merged program into per-cluster programs.
//     The gate asks sharded to stay within 10% of global.
type ChurnSummary struct {
	Domain string `json:"domain"`
	Family string `json:"family"`

	// Churn phase: N live queries at steady state, Events timed
	// Add/Remove operations against the sharded registry, and the cluster
	// shape after the final flush.
	N        int `json:"n"`
	Events   int `json:"events"`
	Clusters int `json:"clusters"`
	Splits   int `json:"splits"`
	CPUs     int `json:"cpus"`

	// Admission latency: wall time of one ShardedRegistry.Add/Remove call
	// — signature, cluster routing, per-cluster registry delta publish,
	// rebalance splits when they trigger — in microseconds. This is the
	// path a subscription blocks on; re-consolidation is deferred.
	AdmitP50Micros float64 `json:"admit_p50_us"`
	AdmitP99Micros float64 `json:"admit_p99_us"`
	AdmitMaxMicros float64 `json:"admit_max_us"`

	// Rebuild stall: wall time of the lazy Rebuild after each event,
	// which re-consolidates only the dirtied clusters, in milliseconds.
	StallP50MS  float64 `json:"stall_p50_ms"`
	StallP99MS  float64 `json:"stall_p99_ms"`
	StallMeanMS float64 `json:"stall_mean_ms"`

	// Cold build: one Flush over the freshly seeded N queries, and the
	// resulting per-cluster merged-program sizes (AST nodes).
	ColdBuildMS    float64 `json:"cold_build_ms"`
	MergedSizeMax  int     `json:"merged_size_max"`
	MergedSizeMean float64 `json:"merged_size_mean"`

	// Global baseline: mean from-scratch consolidate.All over BaselineN
	// live queries with a fresh cache — the per-change price of a
	// registry that keeps one merged program and no incremental state.
	BaselineN         int     `json:"baseline_n"`
	BaselineRebuildMS float64 `json:"baseline_rebuild_ms"`

	// AdmitGain = BaselineRebuildMS / AdmitP99Micros (unit-adjusted).
	AdmitGain float64 `json:"admit_gain"`

	// Throughput duel at ThroughputN queries, same dataset: WhereSharded
	// over the sharded registry vs WhereRegistry over a single global
	// registry, whole-pass records over wall clock, best of reps.
	ThroughputN          int     `json:"throughput_n"`
	ShardedRecordsPerSec float64 `json:"sharded_records_per_sec"`
	GlobalRecordsPerSec  float64 `json:"global_records_per_sec"`

	// Agree: the duel's notification sets matched record-for-record under
	// the id correspondence, and every churn-phase Rebuild left a clean
	// snapshot.
	Agree bool `json:"agree"`
}

// Row renders an outcome as a fixed-width report line.
func (o *Outcome) Row() string {
	return fmt.Sprintf("%-8s %-4s  n=%-3d rec=%-6d  udf×%5.1f cost×%5.1f total×%5.1f  cons=%8s hit=%4.0f%%  ok=%v",
		o.Domain, o.Family, o.NumUDFs, o.Records,
		o.UDFSpeedup(), o.CostSpeedup(), o.TotalSpeedup(),
		o.Consolidate.Round(time.Millisecond), o.CacheHitRate*100, o.Agree)
}

// Header is the column legend for Row.
func Header() string {
	return "domain   fam   UDFs  records  speedups(udf-time, udf-cost, total)  consolidation  cache-hit  agree"
}
