package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/smt"
)

// liteToy is a lite-capable RecordLibrary for exercising every batched
// stage in-package: key(r) answers from a column after a lite select
// (cost 4, within the lite bound), val(r) needs the full "decode". The
// spans counter is shared across clones so tests can assert the batched
// lite-decode hook actually ran.
type liteToy struct {
	keys, vals []int64
	spans      *atomic.Int64

	curIdx int
	cur    int64
	ok     bool
	inSpan bool
}

func newLiteToy(n int) *liteToy {
	d := &liteToy{curIdx: -1, spans: new(atomic.Int64)}
	for i := 0; i < n; i++ {
		d.keys = append(d.keys, int64(i*13%97))
		d.vals = append(d.vals, int64(i*7%50))
	}
	return d
}

func (d *liteToy) NumRecords() int { return len(d.keys) }
func (d *liteToy) SetRecord(i int) {
	d.curIdx = i
	d.cur = d.vals[i]
	d.ok = true
	d.inSpan = false
}
func (d *liteToy) SetRecordLite(i int) {
	d.curIdx = i
	if !d.inSpan {
		d.ok = false
	}
}
func (d *liteToy) SetRecordLiteSpan(lo, hi int) {
	d.curIdx = -1
	d.ok = false
	d.inSpan = true
	d.spans.Add(1)
}
func (d *liteToy) LiteCostBound() int64 { return 4 }
func (d *liteToy) Clone() RecordLibrary {
	return &liteToy{keys: d.keys, vals: d.vals, spans: d.spans, curIdx: -1}
}
func (d *liteToy) FuncCost(name string) (int64, bool) {
	switch name {
	case "key":
		return 4, true
	case "val":
		return 20, true
	}
	return 0, false
}
func (d *liteToy) key(args []int64) (int64, error) {
	if d.curIdx < 0 {
		return 0, fmt.Errorf("liteToy: no record selected")
	}
	return d.keys[d.curIdx], nil
}
func (d *liteToy) val(args []int64) (int64, error) {
	if !d.ok {
		return 0, fmt.Errorf("liteToy: record not decoded")
	}
	return d.cur, nil
}
func (d *liteToy) Resolve(name string) (func(args []int64) (int64, error), bool) {
	switch name {
	case "key":
		return d.key, true
	case "val":
		return d.val, true
	}
	return nil, false
}
func (d *liteToy) Call(name string, args []int64) (int64, error) {
	fn, ok := d.Resolve(name)
	if !ok {
		return 0, fmt.Errorf("liteToy: no function %q", name)
	}
	return fn(args)
}

// gatedToyUDFs gates the expensive val scan behind the cheap key column —
// the shape guard synthesis turns into a lite admission pre-filter.
func gatedToyUDFs(n int, keyThr int64) []*lang.Program {
	var out []*lang.Program
	for i := 0; i < n; i++ {
		out = append(out, lang.MustParse(fmt.Sprintf(
			"func q%d(r) { f := key(r); if (f >= %d && val(r) > %d) { notify 1 true; } else { notify 1 false; } }",
			i, keyThr, 10+i*9)))
	}
	return out
}

// sameMetrics asserts the batched run's verdicts and every deterministic
// metric are byte-identical to the reference run.
func sameMetrics(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if !SameResults(ref, got) {
		t.Fatalf("%s: verdicts diverge from the record-at-a-time reference", label)
	}
	if ref.UDFCost != got.UDFCost || ref.GuardCost != got.GuardCost {
		t.Fatalf("%s: cost %d/%d, reference %d/%d", label, got.UDFCost, got.GuardCost, ref.UDFCost, ref.GuardCost)
	}
	if ref.Admitted != got.Admitted || ref.Rejected != got.Rejected {
		t.Fatalf("%s: admitted/rejected %d/%d, reference %d/%d",
			label, got.Admitted, got.Rejected, ref.Admitted, ref.Rejected)
	}
	for q := range ref.LatencySum {
		if ref.LatencySum[q] != got.LatencySum[q] {
			t.Fatalf("%s: latency stamp sum of UDF %d is %d, reference %d",
				label, q, got.LatencySum[q], ref.LatencySum[q])
		}
	}
	for q := range ref.Selected {
		if ref.Selected[q] != got.Selected[q] {
			t.Fatalf("%s: selected[%d] %d, reference %d", label, q, got.Selected[q], ref.Selected[q])
		}
	}
}

// TestBatchDispatchParity is the engine-level determinism criterion: every
// Workers/BatchSize combination must reproduce the record-at-a-time
// reference byte-identically — verdicts, costs, guard shares,
// per-notification latency stamps — on both operators, with the admission
// guard active.
func TestBatchDispatchParity(t *testing.T) {
	const n = 271 // deliberately ragged against every batch size below
	d := newLiteToy(n)
	udfs := gatedToyUDFs(3, 60)
	ccache, pcache := smt.NewCache(0), smt.NewCache(0)
	copts := consolidate.Options{Cache: ccache}

	manyRef, err := WhereMany(d, udfs, Options{Workers: 1, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	consRef, err := WhereConsolidated(d, udfs, copts, Options{Workers: 1, BatchSize: 1, PrefilterCache: pcache})
	if err != nil {
		t.Fatal(err)
	}
	if consRef.Guard == nil || consRef.Guard.Trivial {
		t.Fatal("expected a non-trivial guard; the parity matrix would skip the guard stage")
	}
	if consRef.Rejected == 0 || consRef.Admitted == 0 {
		t.Fatalf("degenerate admission split %d/%d", consRef.Admitted, consRef.Rejected)
	}

	spansBefore := d.spans.Load()
	for _, bs := range []int{1, 7, 64, n, 512} {
		for _, w := range []int{1, 2, 4} {
			label := fmt.Sprintf("workers=%d/batch=%d", w, bs)
			opts := Options{Workers: w, BatchSize: bs, PrefilterCache: pcache}
			many, err := WhereMany(d, udfs, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, label+"/many", manyRef, many)
			cons, err := WhereConsolidated(d, udfs, copts, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, label+"/cons", &consRef.Result, &cons.Result)
			wantBatches := (n + bs - 1) / bs
			if bs > n {
				wantBatches = 1
			}
			if cons.Batches != wantBatches {
				t.Fatalf("%s: %d batches, want %d", label, cons.Batches, wantBatches)
			}
		}
	}
	if d.spans.Load() == spansBefore {
		t.Fatal("batched lite decode (SetRecordLiteSpan) never ran on the filtered passes")
	}
}

// TestBatchedWhereManyZeroAlloc pins the allocation contract of the
// whereMany stage: once a worker is constructed and warm, evaluating a
// batch performs zero allocations.
func TestBatchedWhereManyZeroAlloc(t *testing.T) {
	const n, bsize = 512, 128
	d := toy(n)
	udfs := thresholdUDFs(10, 25, 40)
	compiled := make([]*lang.Compiled, len(udfs))
	ids := make([]int, len(udfs))
	for i, p := range udfs {
		c, err := lang.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		compiled[i] = c
		ids[i] = 1
	}
	res, _ := newResult(n, len(udfs))
	eval := whereManyWorker(udfs, compiled, ids, Options{BatchSize: bsize})(d.Clone(), res.Bools, res.LatencySum)
	var m Metrics
	for lo := 0; lo < n; lo += bsize {
		if err := eval(lo, lo+bsize, &m); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := eval(bsize, 2*bsize, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched whereMany stage allocates %v per batch, want 0", allocs)
	}
}

// fullOnly hides a dataset's lite interfaces, so admission guards fuse
// into the full-decode stage.
type fullOnly struct{ RecordLibrary }

func (f fullOnly) Clone() RecordLibrary { return fullOnly{f.RecordLibrary.Clone()} }

// requireSnapPassZeroAlloc pins the allocation contract of the shared
// per-worker snapshot pass over one source shape: once a worker has
// swapped to a generation and is warm, a batch — generation load, guard
// stage, merged programs, verbatim pending queries — performs zero
// allocations; only the keyed front ends' publish step allocates (verdict
// maps). Each shape runs with the guard on the lite decode and fused after
// the full decode, at two batch sizes; two independent passes per case
// model two workers over their own clones. dense, when positive, gives
// the pass a dense verdict backing of that length, as WhereConsolidated
// does.
func requireSnapPassZeroAlloc(t *testing.T, d *liteToy, n int, name string, src genSource, clusters int, pending bool, dense int) {
	t.Helper()
	for _, fused := range []bool{false, true} {
		for _, bsize := range []int{32, 128} {
			for wk := 0; wk < 2; wk++ {
				label := fmt.Sprintf("%s/fused=%v/batch=%d/worker=%d", name, fused, bsize, wk)
				var lib RecordLibrary = d.Clone()
				if fused {
					lib = fullOnly{lib}
				}
				p := newSnapPass(lib, Options{BatchSize: bsize}, src)
				if dense > 0 {
					p.dense = make([]bool, dense)
				}
				var m Metrics
				for lo := 0; lo < n; lo += bsize {
					if err := p.batch(lo, lo+bsize, &m); err != nil {
						t.Fatal(err)
					}
				}
				guarded := 0
				for ci := range p.cls {
					if p.cls[ci].guardRn != nil {
						guarded++
					}
				}
				if len(p.cls) < clusters || guarded == 0 || p.pending != pending || p.fused != fused {
					t.Fatalf("%s: %d clusters (%d guarded), pending=%v fused=%v; the case does not exercise its stages",
						label, len(p.cls), guarded, p.pending, p.fused)
				}
				if m.Rejected == 0 {
					t.Fatalf("%s: the guard rejected nothing", label)
				}
				allocs := testing.AllocsPerRun(100, func() {
					if err := p.batch(bsize, 2*bsize, &m); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("%s: evaluation allocates %v per batch, want 0", label, allocs)
				}
			}
		}
	}
}

const pendToyUDF = `func pend(r) { notify 3 (val(r) > 10); }`

// TestBatchedConsolidatedZeroAlloc pins the snapshot pass over a frozen
// consolidated snapshot, evaluated into a dense backing as
// WhereConsolidated does.
func TestBatchedConsolidatedZeroAlloc(t *testing.T) {
	const n = 512
	d := newLiteToy(n)
	udfs := gatedToyUDFs(2, 60)
	merged, _, err := consolidate.All(udfs, consolidate.Options{FuncCoster: d}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	mergedC, err := lang.Compile(merged)
	if err != nil {
		t.Fatal(err)
	}
	guard := prefilter.Synthesize(merged, prefilter.Options{Coster: d, MaxCallCost: d.LiteCostBound()})
	frozen := &registry.Snapshot{Merged: merged, Compiled: mergedC, Guard: guard, Slots: []registry.QueryID{0, 1}}
	requireSnapPassZeroAlloc(t, d, n, "frozen", frozenSource(clusterSnap{snap: frozen}), 1, false, n*len(frozen.Slots))
}

// TestBatchedRegistryZeroAlloc pins the snapshot pass over a registry
// delta snapshot: a guarded merged program plus one post-rebuild
// addition, kept pending by a frozen debounce.
func TestBatchedRegistryZeroAlloc(t *testing.T) {
	const n = 512
	d := newLiteToy(n)
	reg, err := registry.New(registry.Options{
		Debounce:  time.Hour,
		Prefilter: &prefilter.Options{Coster: d, MaxCallCost: d.LiteCostBound()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, p := range gatedToyUDFs(2, 60) {
		if _, err := reg.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add(lang.MustParse(pendToyUDF)); err != nil {
		t.Fatal(err)
	}
	requireSnapPassZeroAlloc(t, d, n, "registry-delta", registrySource(reg), 1, true, 0)
}

// TestWhereShardedZeroAlloc pins the snapshot pass over a multi-cluster
// shard with a pending query.
func TestWhereShardedZeroAlloc(t *testing.T) {
	const n = 512
	d := newLiteToy(n)
	sh, greg, _, _, _ := shardedFixture(t, d, 4)
	defer sh.Close()
	greg.Close() // fixture convenience; unused here
	if _, err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Add(lang.MustParse(pendToyUDF)); err != nil {
		t.Fatal(err)
	}
	requireSnapPassZeroAlloc(t, d, n, "shard", shardSource(sh), 2, true, 0)
}
