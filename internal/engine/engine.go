// Package engine is a miniature data-parallel query engine in the style of
// the Naiad system the paper builds on (Section 6.1): records stream from a
// dataset through filter operators that evaluate user-defined functions
// written in the formal language, with the stream partitioned across
// workers. Two operators matter for the evaluation:
//
//   - WhereMany evaluates n UDFs sequentially per record in a single pass
//     over the data (the paper's fair baseline — IO is already shared).
//   - WhereConsolidated consolidates the n UDFs into one program first and
//     evaluates that per record.
//
// Comparing the two isolates exactly the benefit of UDF consolidation, as
// in Figures 9 and 10.
//
// WhereConsolidated, WhereRegistry and WhereSharded are three front ends
// of one snapshot pass (pass.go): a worker evaluates each batch against a
// generation of clusters — registry snapshots with their id mappings — by
// running every cluster's admission guard over a lite decode, then paying
// the full decode only for records some cluster admitted. The front ends
// differ in where the generation comes from (a frozen one-cluster
// snapshot, a live registry, a sharded registry) and in how verdicts are
// published (dense rows or id-keyed maps).
//
// Dispatch is batched: runPass shards the record stream into fixed-size
// contiguous batches claimed dynamically by workers, each over its own
// clone of the dataset, and the per-record stages run as per-batch stages
// that amortize snapshot checks, guard setup, and timer reads across the
// batch. Verdicts, costs, and per-notification stamps are byte-identical at
// every Workers/BatchSize combination: every accumulation the pass performs
// is a commutative sum, and each verdict row is written by exactly one
// worker.
package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/smt"
)

// RecordLibrary is a dataset: a sequence of records plus the library
// functions UDFs use to access the current record's fields. SetRecord
// performs any per-record decoding, so each pass over the data pays the
// ingest cost exactly once per record, mirroring shared IO.
type RecordLibrary interface {
	lang.Library
	// NumRecords reports the dataset size.
	NumRecords() int
	// SetRecord selects (and decodes) the record subsequent calls refer to.
	SetRecord(i int)
	// Clone returns an independent view for another worker goroutine.
	Clone() RecordLibrary
}

// LiteRecordLibrary is a dataset whose cheap columnar accessors work without
// the full per-record decode: SetRecordLite selects a record for those
// accessors only, at near-zero cost. The admission pre-filter uses it to
// reject records before paying SetRecord.
type LiteRecordLibrary interface {
	RecordLibrary
	// SetRecordLite selects a record for the lite-safe accessors without
	// decoding it. Calling a non-lite function afterwards is an error.
	SetRecordLite(i int)
	// LiteCostBound returns the largest abstract cost of any lite-safe
	// function; guard synthesis is restricted to calls priced within it.
	LiteCostBound() int64
}

// LiteSpanLibrary is an optional LiteRecordLibrary extension for batched
// lite decoding: SetRecordLiteSpan(lo, hi) prepares the contiguous record
// span [lo, hi) for lite access in one call, so the per-record
// SetRecordLite inside the span only has to select the index — any
// invalidation of full-decode state happens once per span instead of once
// per record. A subsequent SetRecord ends the span (the guard stage is
// over). Verdicts must be byte-identical with and without the span hook.
type LiteSpanLibrary interface {
	LiteRecordLibrary
	// SetRecordLiteSpan prepares records [lo, hi) for lite selection.
	SetRecordLiteSpan(lo, hi int)
}

// Metrics summarises one predicate pass; WhereMany, WhereConsolidated,
// WhereRegistry and WhereSharded all report it. Counts that a pass shape
// cannot produce stay zero (a frozen consolidated snapshot never swaps or
// runs pending queries).
type Metrics struct {
	Records int
	// Batches counts batch dispatches (ceil(Records / batch size) on a
	// completed pass). Swaps counts generation changes a worker picked up at
	// a batch boundary; each took effect atomically, so every record of a
	// batch was evaluated against one generation. With several workers each
	// worker swaps on its own, so Swaps depends on scheduling.
	Batches int
	Swaps   int
	// PendingRuns counts verbatim executions of not-yet-consolidated
	// queries; SuppressedNotifies counts notifications dropped because the
	// query unsubscribed after the running program was built. Both are zero
	// while the served snapshots are clean.
	PendingRuns        int
	SuppressedNotifies int
	// UDFCost is the summed abstract cost (Figure 2 semantics) of all UDF,
	// merged-program, pending-query and guard evaluations — the
	// engine-independent measure of computation.
	UDFCost int64
	// UDFTime is wall time spent inside UDF evaluation. The lite guard stage
	// is timed per batch and includes the lite decode; every other UDF,
	// merged-program, pending-query or fused-guard run is timed per record,
	// excluding the full decode.
	UDFTime time.Duration
	// TotalTime is wall time for the whole pass, including record decode
	// and result collection.
	TotalTime time.Duration
	// Admitted and Rejected count admission verdicts, one per record and
	// cluster: clusters without a non-trivial guard admit unconditionally,
	// so Admitted+Rejected = Records × clusters on a quiescent pass.
	Admitted int
	Rejected int
	// GuardCost is the summed abstract cost of guard evaluations; it is also
	// included in UDFCost (the guard is part of the work the pass performs).
	GuardCost int64
}

// add folds one worker's metrics into the pass totals.
func (m *Metrics) add(o *Metrics) {
	m.Batches += o.Batches
	m.Swaps += o.Swaps
	m.PendingRuns += o.PendingRuns
	m.SuppressedNotifies += o.SuppressedNotifies
	m.UDFCost += o.UDFCost
	m.UDFTime += o.UDFTime
	m.Admitted += o.Admitted
	m.Rejected += o.Rejected
	m.GuardCost += o.GuardCost
}

// Result of a position-keyed filter operator: Bools[i][q] reports whether
// record i passed UDF q, plus metrics.
type Result struct {
	Bools [][]bool
	UDFs  int
	// Selected counts records each UDF accepted.
	Selected []int
	// LatencySum[q] accumulates, over all records, the abstract cost at
	// which UDF q's notification was broadcast (counting, under whereMany,
	// the cost of the UDFs that ran before it on that record). Divided by
	// Records it is the mean notification latency the paper's Section 8
	// discusses: consolidation optimises completion time and may trade
	// individual-query latency for it.
	LatencySum []int64
	Metrics
}

// MeanLatency returns the average notification latency of UDF q in cost
// units, or 0 when nothing ran.
func (r *Result) MeanLatency(q int) float64 {
	if r.Records == 0 || q < 0 || q >= len(r.LatencySum) {
		return 0
	}
	return float64(r.LatencySum[q]) / float64(r.Records)
}

// newResult allocates a pass's verdict rows over one contiguous backing
// (returned too), pre-sliced with full slice expressions so rows stay
// independent.
func newResult(n, nUDFs int) (*Result, []bool) {
	backing := make([]bool, n*nUDFs)
	rows := make([][]bool, n)
	for i := range rows {
		off := i * nUDFs
		rows[i] = backing[off : off+nUDFs : off+nUDFs]
	}
	return &Result{Bools: rows, UDFs: nUDFs, LatencySum: make([]int64, nUDFs)}, backing
}

// finish stamps the pass's wall time and counts each UDF's selections.
func (r *Result) finish(start time.Time) {
	r.TotalTime = time.Since(start)
	r.Selected = make([]int, r.UDFs)
	for _, row := range r.Bools {
		for q, v := range row {
			if v {
				r.Selected[q]++
			}
		}
	}
}

// DefaultBatchSize is the records-per-batch used when Options.BatchSize is
// zero: large enough to amortize dispatch, snapshot checks, and guard-stage
// timer reads, small enough that registry generation swaps (which take
// effect only at batch boundaries) stay responsive mid-stream.
const DefaultBatchSize = 256

// Options configures operator execution.
type Options struct {
	// Workers is the number of parallel workers; 0 means GOMAXPROCS.
	Workers int
	// BatchSize is the number of records a worker claims per dispatch; 0
	// means DefaultBatchSize. 1 reproduces record-at-a-time dispatch
	// (verdicts are byte-identical either way; only amortization changes).
	BatchSize int
	// MaxSteps guards against diverging UDFs; 0 disables the guard.
	MaxSteps int64
	// NoPrefilter disables admission pre-filter synthesis for consolidated
	// passes; records then always run the full merged program.
	NoPrefilter bool
	// NoHomAgg disables the homomorphic partial/combine path of windowed
	// aggregation passes: groups then run window-at-a-time, never splitting a
	// window across workers. Outputs are byte-identical either way — the knob
	// exists for differential testing and for measuring the split's benefit.
	NoHomAgg bool
	// PrefilterCache, when set, backs the SMT queries of guard synthesis so
	// repeated consolidations share validity verdicts.
	PrefilterCache *smt.Cache
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) batchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return DefaultBatchSize
}

// notifyIDOf returns the single notification id a filter UDF broadcasts.
func notifyIDOf(p *lang.Program) (int, error) {
	ids := lang.NotifyIDs(p.Body)
	if len(ids) != 1 {
		return 0, fmt.Errorf("engine: UDF %s must notify exactly one id, has %d", p.Name, len(ids))
	}
	for id := range ids {
		return id, nil
	}
	return 0, nil
}

func validateUDF(p *lang.Program) error {
	if len(p.Params) != 1 {
		return fmt.Errorf("engine: UDF %s must take exactly the record parameter", p.Name)
	}
	return nil
}

// WhereMany evaluates every UDF on every record in one pass, sequentially
// per record — the whereMany operator of Section 6.1.
func WhereMany(data RecordLibrary, udfs []*lang.Program, opts Options) (*Result, error) {
	for _, p := range udfs {
		if err := validateUDF(p); err != nil {
			return nil, err
		}
	}
	ids := make([]int, len(udfs))
	for i, p := range udfs {
		id, err := notifyIDOf(p)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	compiled := make([]*lang.Compiled, len(udfs))
	for i, p := range udfs {
		c, err := lang.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("engine: compiling %s: %w", p.Name, err)
		}
		compiled[i] = c
	}
	res, _ := newResult(data.NumRecords(), len(udfs))
	start := time.Now()
	err := runPass(data, opts, &res.Metrics, func(lib RecordLibrary) (batchFn, func()) {
		lat := make([]int64, len(udfs))
		return whereManyWorker(udfs, compiled, ids, opts)(lib, res.Bools, lat), func() {
			for q, v := range lat {
				res.LatencySum[q] += v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.finish(start)
	return res, nil
}

// whereManyWorker builds the per-worker batch stage of WhereMany: one
// runner per UDF, resolved and arity-checked once, then driven through the
// single-argument batch entry point record by record, writing record i's
// verdicts to rows[i] and its latency stamps to the worker's lat.
func whereManyWorker(udfs []*lang.Program, compiled []*lang.Compiled, ids []int, opts Options) func(lib RecordLibrary, rows [][]bool, lat []int64) batchFn {
	return func(lib RecordLibrary, rows [][]bool, lat []int64) batchFn {
		runners := make([]*lang.Runner, len(compiled))
		noteIdx := make([]int, len(compiled))
		for i, c := range compiled {
			runners[i] = lang.NewRunner(c, lib)
			runners[i].MaxSteps = opts.MaxSteps
			if err := runners[i].BeginBatch1(); err != nil {
				return failingBatch(err)
			}
			// The id is statically present (notifyIDOf found it), so the
			// dense note slot resolves here, outside the batch loop.
			noteIdx[i], _ = c.NoteIndex(ids[i])
		}
		return func(lo, hi int, m *Metrics) error {
			for i := lo; i < hi; i++ {
				lib.SetRecord(i)
				row := rows[i]
				var recCost int64
				t0 := time.Now()
				for q, rn := range runners {
					c, err := rn.RunDense1(int64(i))
					if err != nil {
						return fmt.Errorf("engine: UDF %s on record %d: %w", udfs[q].Name, i, err)
					}
					v, ok := rn.NoteAt(noteIdx[q])
					if !ok {
						return fmt.Errorf("engine: UDF %s did not notify id %d on record %d", udfs[q].Name, ids[q], i)
					}
					// Sequential execution: this UDF's notification waited for
					// all earlier UDFs on this record.
					lat[q] += recCost + rn.NoteCostAt(noteIdx[q])
					recCost += c
					row[q] = v
				}
				m.UDFTime += time.Since(t0)
				m.UDFCost += recCost
				m.Admitted++
			}
			return nil
		}
	}
}

// ConsolidatedResult extends Result with consolidation statistics.
type ConsolidatedResult struct {
	Result
	// ConsolidateTime is the time spent merging the UDFs (compile time).
	ConsolidateTime time.Duration
	Multi           *consolidate.MultiStats
	// Merged is the consolidated program actually executed.
	Merged *lang.Program
	// Guard is the synthesized admission pre-filter (nil with NoPrefilter;
	// trivial guards are synthesized but not executed).
	Guard *prefilter.Guard
	// PrefilterTime is the time spent synthesizing the guard.
	PrefilterTime time.Duration
}

// WhereConsolidated consolidates the UDFs into a single program (notify ids
// renumbered to UDF positions) and evaluates it once per record — the
// whereConsolidated operator of Section 6.1. The pass is the shared
// snapshot pass over a frozen one-cluster snapshot whose slot q is UDF q.
func WhereConsolidated(data RecordLibrary, udfs []*lang.Program, copts consolidate.Options, opts Options) (*ConsolidatedResult, error) {
	for _, p := range udfs {
		if err := validateUDF(p); err != nil {
			return nil, err
		}
		if _, err := notifyIDOf(p); err != nil {
			return nil, err
		}
	}
	if copts.FuncCoster == nil {
		copts.FuncCoster = data
	}
	t0 := time.Now()
	merged, ms, err := consolidate.All(udfs, copts, true, true)
	if err != nil {
		return nil, err
	}
	consTime := time.Since(t0)

	mergedC, err := lang.Compile(merged)
	if err != nil {
		return nil, fmt.Errorf("engine: compiling consolidated program: %w", err)
	}

	// Synthesize the admission pre-filter: a sound necessary condition for
	// any notification, restricted to calls the dataset can answer without a
	// full record decode. Synthesis cannot fail — workloads whose notify
	// conditions need only expensive calls get the trivial guard, and the
	// filter stage is skipped entirely (byte-identical to the unfiltered
	// pass). A non-trivial guard's calls are within LiteCostBound by
	// construction (it was the synthesis fragment bound), so the guard can
	// run after SetRecordLite.
	var guard *prefilter.Guard
	var prefTime time.Duration
	if !opts.NoPrefilter {
		t1 := time.Now()
		popts := prefilter.Options{Coster: data, Cache: opts.PrefilterCache, CostModel: copts.CostModel}
		if lite, ok := data.(LiteRecordLibrary); ok {
			popts.MaxCallCost = lite.LiteCostBound()
		}
		guard = prefilter.Synthesize(merged, popts)
		prefTime = time.Since(t1)
	}

	frozen := &registry.Snapshot{Merged: merged, Compiled: mergedC, Guard: guard, Slots: make([]registry.QueryID, len(udfs))}
	for q := range frozen.Slots {
		frozen.Slots[q] = registry.QueryID(q)
	}
	src := frozenSource(clusterSnap{snap: frozen})
	res, backing := newResult(data.NumRecords(), len(udfs))
	start := time.Now()
	err = runPass(data, opts, &res.Metrics, func(lib RecordLibrary) (batchFn, func()) {
		p := newSnapPass(lib, opts, src)
		p.dense = backing
		return p.batch, func() {
			for gid, v := range p.latency() {
				res.LatencySum[gid] += v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.finish(start)
	return &ConsolidatedResult{
		Result: *res, ConsolidateTime: consTime, Multi: ms, Merged: merged,
		Guard: guard, PrefilterTime: prefTime,
	}, nil
}

// batchFn evaluates the record batch [lo, hi) into the worker's metrics.
// Record selection (SetRecord, SetRecordLite, or a lite span) is the
// batchFn's responsibility, so a pre-filter stage can defer full decodes
// until a record is admitted.
type batchFn func(lo, hi int, m *Metrics) error

// failingBatch is a batchFn that reports a worker-construction error on
// first dispatch (runPass surfaces it as the pass error).
func failingBatch(err error) batchFn {
	return func(int, int, *Metrics) error { return err }
}

// runPass shards the record stream into fixed-size contiguous batches and
// lets workers claim them dynamically off a shared counter. start builds
// one worker over its own library clone — no pass moves the caller's
// library — and returns the worker's batchFn and a fold step; each worker
// accumulates metrics locally, and after its last batch its metrics and
// fold step merge into the pass under the mutex. Every accumulation is a
// commutative sum and each record is evaluated by exactly one worker, so
// results are byte-identical at every Workers × BatchSize combination.
func runPass(data RecordLibrary, opts Options, total *Metrics, start func(lib RecordLibrary) (batchFn, func())) error {
	n := data.NumRecords()
	total.Records = n
	if n == 0 {
		return nil
	}
	bsize := opts.batchSize()
	nBatches := (n + bsize - 1) / bsize
	workers := opts.workers()
	if workers > nBatches {
		workers = nBatches
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		// done lets the surviving workers bail out between batches once any
		// worker has recorded firstErr; their partial metrics are discarded
		// with the failed pass anyway.
		done atomic.Bool
		// next is the shared batch counter: workers claim the next
		// unclaimed batch, so a worker stuck on a slow batch never strands
		// the rest of its range (dynamic load balancing over a contiguous,
		// record-index-keyed partition).
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eval, fold := start(data.Clone())
			var m Metrics
			for !done.Load() {
				b := int(next.Add(1)) - 1
				if b >= nBatches {
					break
				}
				lo := b * bsize
				hi := min(lo+bsize, n)
				if err := eval(lo, hi, &m); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					done.Store(true)
					break
				}
				m.Batches++
			}
			mu.Lock()
			total.add(&m)
			fold()
			mu.Unlock()
		}()
	}
	wg.Wait()
	return firstErr
}

// SameResults reports whether two operator results selected exactly the
// same records per UDF; used to validate whereConsolidated against
// whereMany.
func SameResults(a, b *Result) bool {
	if len(a.Bools) != len(b.Bools) {
		return false
	}
	for i := range a.Bools {
		if len(a.Bools[i]) != len(b.Bools[i]) {
			return false
		}
		for q := range a.Bools[i] {
			if a.Bools[i][q] != b.Bools[i][q] {
				return false
			}
		}
	}
	return true
}

// TopSelective returns the udf indices sorted by selectivity (fewest
// matches first); a convenience for reports.
func TopSelective(r *Result) []int {
	idx := make([]int, len(r.Selected))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return r.Selected[idx[i]] < r.Selected[idx[j]] })
	return idx
}
