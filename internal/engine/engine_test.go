package engine

import (
	"fmt"
	"testing"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
)

// toyData is a minimal RecordLibrary: records are integers; val(r) returns
// the record value, twice(r) doubles it.
type toyData struct {
	vals []int64
	cur  int64
}

func (d *toyData) NumRecords() int { return len(d.vals) }
func (d *toyData) SetRecord(i int) { d.cur = d.vals[i] }
func (d *toyData) Clone() RecordLibrary {
	return &toyData{vals: d.vals}
}
func (d *toyData) FuncCost(name string) (int64, bool) {
	switch name {
	case "val":
		return 20, true
	case "twice":
		return 30, true
	}
	return 0, false
}
func (d *toyData) Call(name string, args []int64) (int64, error) {
	switch name {
	case "val":
		return d.cur, nil
	case "twice":
		return 2 * d.cur, nil
	}
	return 0, fmt.Errorf("toy: no function %q", name)
}

func toy(n int) *toyData {
	d := &toyData{}
	for i := 0; i < n; i++ {
		d.vals = append(d.vals, int64(i*7%50))
	}
	return d
}

func thresholdUDFs(ks ...int64) []*lang.Program {
	var out []*lang.Program
	for i, k := range ks {
		out = append(out, lang.MustParse(fmt.Sprintf(
			"func q%d(r) { v := val(r); notify 1 (v < %d); }", i, k)))
	}
	return out
}

// TestMeanLatencyBounds pins the out-of-range guards: a negative or
// too-large query index returns 0 instead of panicking.
func TestMeanLatencyBounds(t *testing.T) {
	m := &Result{Metrics: Metrics{Records: 10}, LatencySum: []int64{150}}
	if got := m.MeanLatency(0); got != 15 {
		t.Fatalf("MeanLatency(0) = %v, want 15", got)
	}
	for _, q := range []int{-1, 1, 99} {
		if got := m.MeanLatency(q); got != 0 {
			t.Fatalf("MeanLatency(%d) = %v, want 0", q, got)
		}
	}
	var zero Result
	if got := zero.MeanLatency(0); got != 0 {
		t.Fatalf("zero-record MeanLatency = %v, want 0", got)
	}
}

func TestWhereManyBasics(t *testing.T) {
	d := toy(100)
	udfs := thresholdUDFs(10, 25, 40)
	res, err := WhereMany(d, udfs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 100 || res.UDFs != 3 {
		t.Fatalf("metrics: %d records, %d UDFs, %+v", res.Records, res.UDFs, res.Metrics)
	}
	for i := 0; i < 100; i++ {
		v := int64(i * 7 % 50)
		for q, k := range []int64{10, 25, 40} {
			if res.Bools[i][q] != (v < k) {
				t.Fatalf("record %d udf %d: got %v", i, q, res.Bools[i][q])
			}
		}
	}
	// Thresholds are nested, so selectivity must be monotone.
	if !(res.Selected[0] <= res.Selected[1] && res.Selected[1] <= res.Selected[2]) {
		t.Fatalf("selectivities not monotone: %v", res.Selected)
	}
	if res.UDFCost <= 0 {
		t.Fatal("UDFCost not accounted")
	}
}

func TestWhereConsolidatedMatchesWhereMany(t *testing.T) {
	d := toy(200)
	udfs := thresholdUDFs(5, 15, 25, 35, 45)
	many, err := WhereMany(d, udfs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	copts := consolidate.DefaultOptions()
	cons, err := WhereConsolidated(d, udfs, copts, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !SameResults(many, &cons.Result) {
		t.Fatal("whereConsolidated disagrees with whereMany")
	}
	if cons.UDFCost >= many.UDFCost {
		t.Fatalf("consolidation did not reduce UDF cost: %d vs %d", cons.UDFCost, many.UDFCost)
	}
	if cons.Multi == nil || cons.Multi.Pairs != 4 {
		t.Fatalf("multi stats: %+v", cons.Multi)
	}
	if cons.ConsolidateTime <= 0 {
		t.Fatal("consolidation time not recorded")
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	d := toy(97) // odd size exercises chunk boundaries
	udfs := thresholdUDFs(20, 30)
	r1, err := WhereMany(d, udfs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := WhereMany(d, udfs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !SameResults(r1, r4) {
		t.Fatal("parallel execution changed results")
	}
	if r1.UDFCost != r4.UDFCost {
		t.Fatalf("cost accounting differs across workers: %d vs %d", r1.UDFCost, r4.UDFCost)
	}
}

func TestUDFValidation(t *testing.T) {
	d := toy(10)
	bad := []*lang.Program{lang.MustParse("func b(r, x) { notify 1 true; }")}
	if _, err := WhereMany(d, bad, Options{}); err == nil {
		t.Error("two-parameter UDF must be rejected")
	}
	two := []*lang.Program{lang.MustParse("func b(r) { notify 1 true; notify 2 false; }")}
	if _, err := WhereMany(d, two, Options{}); err == nil {
		t.Error("UDF notifying two ids must be rejected")
	}
}

func TestEmptyDataset(t *testing.T) {
	d := toy(0)
	res, err := WhereMany(d, thresholdUDFs(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || len(res.Bools) != 0 {
		t.Fatalf("empty dataset: %+v", res.Metrics)
	}
}

func TestRuntimeErrorPropagates(t *testing.T) {
	d := toy(5)
	udfs := []*lang.Program{lang.MustParse("func b(r) { v := nosuch(r); notify 1 (v == 0); }")}
	if _, err := WhereMany(d, udfs, Options{}); err == nil {
		t.Error("runtime library error must propagate")
	}
}

func TestTopSelective(t *testing.T) {
	d := toy(100)
	res, err := WhereMany(d, thresholdUDFs(40, 10, 25), Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := TopSelective(res)
	if order[0] != 1 || order[2] != 0 {
		t.Fatalf("TopSelective = %v with selected %v", order, res.Selected)
	}
}

// multiSiteUDFs build programs that each broadcast the SAME id from two
// notify sites in exclusive branches. Before consolidation renumbers ids to
// slot positions, every program collides with every other on that id.
func multiSiteUDFs(ks ...int64) []*lang.Program {
	var out []*lang.Program
	for i, k := range ks {
		out = append(out, lang.MustParse(fmt.Sprintf(
			"func m%d(r) { v := val(r); if (v < %d) { notify 4 (twice(r) < %d); } else { notify 4 false; } }",
			i, k, 2*k-10)))
	}
	return out
}

// TestWhereConsolidatedParallelMultiNotifySites pins down renumbering under
// parallel execution: UDFs whose notify ids collide before renumbering
// (and with several notify sites per program) must still agree with
// WhereMany when the pass is partitioned across workers.
func TestWhereConsolidatedParallelMultiNotifySites(t *testing.T) {
	d := toy(203) // odd size exercises chunk boundaries
	udfs := multiSiteUDFs(12, 19, 26, 33, 41)
	many, err := WhereMany(d, udfs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := WhereConsolidated(d, udfs, consolidate.DefaultOptions(), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !SameResults(many, &cons.Result) {
		t.Fatal("whereConsolidated disagrees with whereMany on multi-site colliding ids")
	}
	// Renumbering must leave no trace of the original shared id: the merged
	// program notifies exactly the slot ids 0..n-1.
	ids := lang.NotifyIDs(cons.Merged.Body)
	if len(ids) != len(udfs) {
		t.Fatalf("merged program notifies %d ids, want %d", len(ids), len(udfs))
	}
	for q := range udfs {
		if !ids[q] {
			t.Fatalf("merged program missing slot id %d (ids %v)", q, ids)
		}
	}
}

// TestNotificationLatency exercises the latency metric (the paper's
// Section 8 discussion): under whereMany the q-th query's notification
// waits for all earlier queries, so mean latency grows with position;
// consolidation broadcasts results as soon as they are computed, so the
// last query's latency improves while early queries may pay a small price.
func TestNotificationLatency(t *testing.T) {
	d := toy(100)
	udfs := thresholdUDFs(5, 15, 25, 35, 45)
	many, err := WhereMany(d, udfs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Monotone in query position under sequential execution.
	for q := 1; q < len(udfs); q++ {
		if many.MeanLatency(q) <= many.MeanLatency(q-1) {
			t.Fatalf("whereMany latency not monotone: %v", many.LatencySum)
		}
	}
	cons, err := WhereConsolidated(d, udfs, consolidate.DefaultOptions(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := len(udfs) - 1
	if cons.MeanLatency(last) >= many.MeanLatency(last) {
		t.Errorf("consolidation should reduce the last query's latency: %v vs %v",
			cons.MeanLatency(last), many.MeanLatency(last))
	}
	// Completion (max latency over queries) must improve too.
	maxOf := func(m *Result) float64 {
		best := 0.0
		for q := 0; q < m.UDFs; q++ {
			if l := m.MeanLatency(q); l > best {
				best = l
			}
		}
		return best
	}
	if maxOf(&cons.Result) >= maxOf(many) {
		t.Errorf("consolidated completion latency did not improve")
	}
}

// TestRunPassRowAllocation guards the pass's verdict-row backing array:
// a dense pass must not allocate one []bool per record. With the hoist, the
// whole pass costs a handful of allocations regardless of record count;
// regressing to per-record make([]bool, nUDFs) pushes the count past the
// record total.
func TestRunPassRowAllocation(t *testing.T) {
	const records, nUDFs = 512, 4
	d := &toyData{vals: make([]int64, records)}
	allocs := testing.AllocsPerRun(5, func() {
		res, _ := newResult(records, nUDFs)
		err := runPass(d, Options{Workers: 1, BatchSize: 32}, &res.Metrics, func(lib RecordLibrary) (batchFn, func()) {
			return func(lo, hi int, m *Metrics) error {
				for i := lo; i < hi; i++ {
					lib.SetRecord(i)
					res.Bools[i][i%nUDFs] = true
				}
				m.UDFCost += int64(hi - lo)
				m.Admitted += hi - lo
				return nil
			}, func() {}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bools) != records || res.Admitted != records {
			t.Fatalf("got %d rows, %d admitted, want %d", len(res.Bools), res.Admitted, records)
		}
	})
	// bools header slice, one backing array, worker bookkeeping and harness
	// overhead — far below one allocation per record.
	if allocs > 64 {
		t.Fatalf("runPass allocated %.0f times for %d records; per-record row allocation has regressed", allocs, records)
	}
}
