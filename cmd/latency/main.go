// Command latency runs the latency extension experiment motivated by the
// paper's Section 8: program consolidation optimises overall completion
// time, and because results are broadcast as soon as they are computed
// (the notify primitive), per-query latency usually improves too — but not
// uniformly: a query that ran first under sequential execution may now
// wait for shared computation scheduled before its notification.
//
// The tool prints, for each query position, the mean notification latency
// (in abstract cost units per record) under whereMany and under
// whereConsolidated.
//
// With -json the tool instead emits one bench.LatencySummary object: the
// per-record execution throughput of both operators (records divided by
// wall time inside UDF evaluation) plus the latency headline — the input
// to benchguard's throughput regression gate.
//
// With -selectivity s < 1 the generated queries are gated on a cheap
// record field (twitter's followerCount) so that only an s-fraction of
// records can notify at all; this is the workload where the engine's
// SMT-synthesized admission pre-filter pays off, and the summary then
// reports the guard's admitted/rejected counts next to the throughputs.
//
// Usage:
//
// With -scaling the tool instead sweeps the batched engine dispatch across
// worker counts: the consolidated operator runs -reps times per count over
// the same dataset and merged program (consolidation verdicts shared
// through one SMT cache), and the summary's scaling trajectory records the
// best whole-pass throughput (records over wall clock) at each count —
// the input to benchguard's multi-core scaling gate.
//
// Usage:
//
//	latency [-domain twitter] [-family Q2] [-n 10] [-scale 0.02] [-seed 1] [-selectivity 0.01] [-json]
//	latency -scaling 1,2,4,8 [-reps 5] [-batch 256] -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"consolidation/internal/bench"
	"consolidation/internal/consolidate"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/queries"
	"consolidation/internal/smt"
)

var (
	flagDomain  = flag.String("domain", "twitter", "dataset domain")
	flagFamily  = flag.String("family", "Q2", "query family")
	flagN       = flag.Int("n", 10, "number of queries")
	flagScale   = flag.Float64("scale", 0.02, "dataset scale")
	flagSeed    = flag.Int64("seed", 1, "workload seed")
	flagSel     = flag.Float64("selectivity", 1, "gate queries on a cheap record field so ~this fraction of records can notify (1 = ungated)")
	flagJSON    = flag.Bool("json", false, "emit a bench.LatencySummary object instead of the table")
	flagWorkers = flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	flagBatch   = flag.Int("batch", 0, "records per dispatched batch (0 = engine default)")
	flagScaling = flag.String("scaling", "", "comma-separated worker counts; sweep the consolidated pass across them instead of the latency report")
	flagReps    = flag.Int("reps", 3, "repetitions per scaling point (best throughput wins)")
)

func main() {
	flag.Parse()
	ds, err := bench.Dataset(*flagDomain, *flagScale, *flagSeed)
	if err != nil {
		fatal(err)
	}
	udfs, err := queries.Gen(*flagDomain, *flagFamily, *flagN, 100+*flagSeed)
	if err != nil {
		fatal(err)
	}
	if *flagSel < 1 {
		if *flagSel <= 0 {
			fatal(fmt.Errorf("-selectivity must be in (0, 1]"))
		}
		q, ok := ds.(interface{ FollowerQuantile(p float64) int64 })
		if !ok {
			fatal(fmt.Errorf("domain %q has no cheap gating field; -selectivity supports twitter", *flagDomain))
		}
		udfs = queries.Selective(udfs, "followerCount", q.FollowerQuantile, *flagSel, 100+*flagSeed)
	}
	copts := consolidate.DefaultOptions()
	copts.FuncCoster = ds
	// Share one SMT query cache across the pairwise merges so the report
	// below can show how much of the entailment work the cache absorbed.
	copts.Cache = smt.NewCache(0)
	if *flagScaling != "" {
		runScaling(ds, udfs, copts)
		return
	}
	eopts := engine.Options{Workers: *flagWorkers, BatchSize: *flagBatch}
	many, err := engine.WhereMany(ds, udfs, eopts)
	if err != nil {
		fatal(err)
	}
	cons, err := engine.WhereConsolidated(ds, udfs, copts, eopts)
	if err != nil {
		fatal(err)
	}
	agree := engine.SameResults(many, &cons.Result)
	if !agree && !*flagJSON {
		fatal(fmt.Errorf("operators disagree"))
	}

	var worse int
	for q := 0; q < *flagN; q++ {
		if cons.MeanLatency(q) > many.MeanLatency(q) {
			worse++
		}
	}

	trivial := cons.Guard == nil || cons.Guard.Trivial
	measured := 1.0
	if n := cons.Metrics.Admitted + cons.Metrics.Rejected; n > 0 {
		measured = float64(cons.Metrics.Admitted) / float64(n)
	}

	if *flagJSON {
		s := bench.LatencySummary{
			Domain:            *flagDomain,
			Family:            *flagFamily,
			NumUDFs:           *flagN,
			Records:           cons.Records,
			Workers:           *flagWorkers,
			BatchSize:         *flagBatch,
			CPUs:              runtime.GOMAXPROCS(0),
			ManyRecordsPerSec: recPerSec(many.Records, many.UDFTime),
			ConsRecordsPerSec: recPerSec(cons.Records, cons.UDFTime),
			ManyUDFMillis:     float64(many.UDFTime) / float64(time.Millisecond),
			ConsUDFMillis:     float64(cons.UDFTime) / float64(time.Millisecond),
			WorseQueries:      worse,

			Selectivity:         *flagSel,
			Admitted:            cons.Metrics.Admitted,
			Rejected:            cons.Metrics.Rejected,
			MeasuredSelectivity: measured,
			GuardTrivial:        trivial,
			GuardCost:           cons.Metrics.GuardCost,
			PrefilterMS:         float64(cons.PrefilterTime) / float64(time.Millisecond),

			Agree: agree,
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(s); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("mean notification latency per record (cost units), %s/%s, %d queries\n\n",
		*flagDomain, *flagFamily, *flagN)
	fmt.Printf("%6s %14s %16s %9s\n", "query", "whereMany", "whereConsolidated", "ratio")
	for q := 0; q < *flagN; q++ {
		m := many.MeanLatency(q)
		c := cons.MeanLatency(q)
		ratio := 0.0
		if c > 0 {
			ratio = m / c
		}
		mark := ""
		if c > m {
			mark = "  (slower)"
		}
		fmt.Printf("%6d %14.1f %16.1f %8.1fx%s\n", q, m, c, ratio, mark)
	}
	fmt.Printf("\nqueries with increased latency: %d of %d\n", worse, *flagN)
	fmt.Println("completion (max over queries):",
		fmt.Sprintf("whereMany %.1f, whereConsolidated %.1f", maxLat(many), maxLat(&cons.Result)))
	if trivial {
		fmt.Println("pre-filter: trivial guard (stage skipped)")
	} else {
		fmt.Printf("pre-filter: admitted %d / rejected %d (measured selectivity %.2f%%), guard cost %d, synthesis %s\n",
			cons.Metrics.Admitted, cons.Metrics.Rejected, measured*100,
			cons.Guard.Cost, cons.PrefilterTime.Round(time.Microsecond))
	}
	cs := cons.Multi.Cache
	fmt.Printf("SMT cache: %d queries, hit-rate %.1f%% (%d/%d lookups), %d entries, %d evictions\n",
		cons.Multi.SMTQueries, cons.Multi.CacheHitRate()*100,
		cs.Hits, cs.Lookups, cs.Entries, cs.Evictions)
}

// runScaling sweeps the batched consolidated pass across the -scaling
// worker counts and emits (or prints) the throughput trajectory. The
// scaling metric is whole-pass wall clock — summed UDF time grows with
// workers by construction — and each point keeps the best of -reps runs,
// since the floor of a noisy sample set, not its mean, is what dispatch
// overhead bounds. The consolidation and pre-filter SMT caches are shared
// across every run, so only the first pass pays synthesis.
func runScaling(ds engine.RecordLibrary, udfs []*lang.Program, copts consolidate.Options) {
	counts, err := parseCounts(*flagScaling)
	if err != nil {
		fatal(err)
	}
	reps := *flagReps
	if reps < 1 {
		reps = 1
	}
	pcache := smt.NewCache(0)
	s := bench.LatencySummary{
		Domain:    *flagDomain,
		Family:    *flagFamily,
		NumUDFs:   *flagN,
		BatchSize: *flagBatch,
		CPUs:      runtime.GOMAXPROCS(0),
	}
	for _, w := range counts {
		eopts := engine.Options{Workers: w, BatchSize: *flagBatch, PrefilterCache: pcache}
		best := 0.0
		for r := 0; r < reps; r++ {
			cons, err := engine.WhereConsolidated(ds, udfs, copts, eopts)
			if err != nil {
				fatal(err)
			}
			s.Records = cons.Records
			if cons.TotalTime > 0 {
				if tput := float64(cons.Records) / cons.TotalTime.Seconds(); tput > best {
					best = tput
				}
			}
		}
		s.Scaling = append(s.Scaling, bench.ScalingPoint{Workers: w, RecordsPerSec: best})
	}
	if *flagJSON {
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("consolidated whole-pass throughput, %s/%s, %d queries, %d records, %d CPUs (best of %d)\n\n",
		s.Domain, s.Family, s.NumUDFs, s.Records, s.CPUs, reps)
	base := 0.0
	for _, pt := range s.Scaling {
		if base == 0 {
			base = pt.RecordsPerSec
		}
		speedup := 0.0
		if base > 0 {
			speedup = pt.RecordsPerSec / base
		}
		fmt.Printf("workers=%-3d %12.0f records/sec  %5.2fx\n", pt.Workers, pt.RecordsPerSec, speedup)
	}
}

// parseCounts parses a comma-separated list of positive worker counts.
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-scaling: bad worker count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scaling: no worker counts")
	}
	return out, nil
}

// recPerSec converts a record count and the wall time spent inside UDF
// evaluation into per-record throughput; zero when the interval is too
// short to measure.
func recPerSec(records int, udf time.Duration) float64 {
	if udf <= 0 {
		return 0
	}
	return float64(records) / udf.Seconds()
}

func maxLat(m *engine.Result) float64 {
	best := 0.0
	for q := 0; q < m.UDFs; q++ {
		if l := m.MeanLatency(q); l > best {
			best = l
		}
	}
	return best
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "latency:", err)
	os.Exit(1)
}
