package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
)

// Windowed aggregation operators. AggregateMany is the fair baseline: each
// aggregation folds the stream on its own, paying its own traversal (and
// its own record decodes and accessor calls). AggregateConsolidated merges
// window-aligned aggregations first (consolidate.MergeAggs) so one
// traversal feeds every member, then dispatches the merged fold over the
// batched worker pool:
//
//   - homomorphic groups split windows across batches: each worker folds
//     its batch's records into per-(batch, window) partial accumulators
//     starting from the combine operators' identities, and a serial pass
//     combines the partials in record order at window close — outputs are
//     byte-identical to the serial fold at every Workers × BatchSize;
//   - non-homomorphic groups never split a window: workers claim whole
//     windows and fold them serially.
//
// Output bits are grid-invariant; abstract fold COST is not, for groups
// whose folds branch on accumulator state (a max guard fires a different
// number of times when partials start from the identity), so only outputs
// are compared across configurations.

// AggOutput is one aggregation's emitted verdicts over the stream.
type AggOutput struct {
	// Name is the aggregation's name.
	Name string
	// IDs are the aggregation's notification ids, sorted; column j of every
	// window row is IDs[j].
	IDs []int
	// Windows is the number of windows emitted (closed windows in close
	// order, then the trailing partial windows in open order; empty windows
	// do not exist — a window opens with its first record).
	Windows int
	// Vals holds Windows × len(IDs) verdicts: 1 true, 0 false, -1 for a
	// notification the emit program did not broadcast for that window.
	Vals []int8
	// Keys holds the per-window key for key-partitioned aggregations; nil
	// in count mode.
	Keys []int64
}

// At returns the verdict of notification column j in window w.
func (o *AggOutput) At(w, j int) int8 {
	return o.Vals[w*len(o.IDs)+j]
}

// AggMetrics summarises one aggregation pass.
type AggMetrics struct {
	Records int
	Aggs    int
	// Groups is the number of shared traversals (window-aligned merge
	// groups); equals Aggs for the unmerged baseline.
	Groups int
	// Windows is the total number of window instances emitted, summed over
	// traversals.
	Windows int
	// Batches counts parallel dispatches (batches on the split path, whole
	// windows on the unsplit path); 0 for the serial baseline.
	Batches int
	// FoldCost, EmitCost, and KeyCost are abstract costs (Figure 2
	// semantics) of the fold, emit, and key-extraction stages. UDFCost is
	// their sum. Fold cost on the split path is not grid-invariant when the
	// fold branches on accumulator state; outputs always are.
	FoldCost int64
	EmitCost int64
	KeyCost  int64
	UDFCost  int64
	// UDFTime is wall time inside fold/emit/key evaluation.
	UDFTime time.Duration
	// TotalTime is wall time of the whole pass.
	TotalTime time.Duration
}

// AggResult is the outcome of an aggregation pass: one output per input
// aggregation, in input order.
type AggResult struct {
	Outputs []*AggOutput
	AggMetrics
}

// ConsolidatedAggResult extends AggResult with consolidation statistics.
type ConsolidatedAggResult struct {
	AggResult
	// ConsolidateTime is the time spent merging the aggregations.
	ConsolidateTime time.Duration
	// Groups are the merged traversal groups actually executed.
	Groups []*consolidate.AggGroup
}

// SameAggResults reports whether two aggregation passes emitted exactly
// the same windows with the same verdicts (and keys).
func SameAggResults(a, b *AggResult) bool {
	if len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		x, y := a.Outputs[i], b.Outputs[i]
		if x.Windows != y.Windows || len(x.IDs) != len(y.IDs) || len(x.Vals) != len(y.Vals) || len(x.Keys) != len(y.Keys) {
			return false
		}
		for j := range x.IDs {
			if x.IDs[j] != y.IDs[j] {
				return false
			}
		}
		for j := range x.Vals {
			if x.Vals[j] != y.Vals[j] {
				return false
			}
		}
		for j := range x.Keys {
			if x.Keys[j] != y.Keys[j] {
				return false
			}
		}
	}
	return true
}

// aggRunner drives one compiled fold/emit pair record by record: RunDense
// with [record, accs...], accumulators read back through their slots —
// zero allocations per record in steady state.
type aggRunner struct {
	foldC *lang.Compiled
	emitC *lang.Compiled
	slots []int // fold slot index of each accumulator
	// noteIdx is the emit's dense note slot per output column.
	noteIdx []int
}

func newAggRunner(fold, emit *lang.Program, accs []string, outIDs []int) (*aggRunner, error) {
	fc, err := lang.Compile(fold)
	if err != nil {
		return nil, fmt.Errorf("engine: compiling %s: %w", fold.Name, err)
	}
	ec, err := lang.Compile(emit)
	if err != nil {
		return nil, fmt.Errorf("engine: compiling %s: %w", emit.Name, err)
	}
	r := &aggRunner{foldC: fc, emitC: ec, slots: make([]int, len(accs)), noteIdx: make([]int, len(outIDs))}
	for i, a := range accs {
		s, ok := fc.SlotIndex(a)
		if !ok {
			return nil, fmt.Errorf("engine: fold %s never assigns accumulator %q", fold.Name, a)
		}
		r.slots[i] = s
	}
	for i, id := range outIDs {
		k, ok := ec.NoteIndex(id)
		if !ok {
			return nil, fmt.Errorf("engine: emit %s cannot broadcast notification %d", emit.Name, id)
		}
		r.noteIdx[i] = k
	}
	return r, nil
}

// foldStep folds record i into accs in place. args is caller scratch of
// length 1+len(accs).
func (r *aggRunner) foldStep(rn *lang.Runner, lib RecordLibrary, i int, accs, args []int64) (int64, error) {
	lib.SetRecord(i)
	args[0] = int64(i)
	copy(args[1:], accs)
	c, err := rn.RunDense(args)
	if err != nil {
		return 0, fmt.Errorf("engine: fold on record %d: %w", i, err)
	}
	for a, s := range r.slots {
		if v, ok := rn.SlotAt(s); ok {
			accs[a] = v
		}
	}
	return c, nil
}

// emitWindow runs the emit over final accumulator values and appends one
// int8 verdict per output column to dst.
func (r *aggRunner) emitWindow(rn *lang.Runner, accs []int64, dst []int8) ([]int8, int64, error) {
	c, err := rn.RunDense(accs)
	if err != nil {
		return dst, 0, fmt.Errorf("engine: emit: %w", err)
	}
	for _, k := range r.noteIdx {
		v, ok := rn.NoteAt(k)
		switch {
		case !ok:
			dst = append(dst, -1)
		case v:
			dst = append(dst, 1)
		default:
			dst = append(dst, 0)
		}
	}
	return dst, c, nil
}

// extractKeysSerial computes the key of every record with the window's key
// function.
func extractKeysSerial(data RecordLibrary, keyFunc string, n int) ([]int64, int64, error) {
	keys := make([]int64, n)
	var cost int64
	kc, _ := data.FuncCost(keyFunc)
	arg := make([]int64, 1)
	for i := 0; i < n; i++ {
		data.SetRecord(i)
		arg[0] = int64(i)
		k, err := data.Call(keyFunc, arg)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: key function %s on record %d: %w", keyFunc, i, err)
		}
		keys[i] = k
		cost += kc
	}
	return keys, cost, nil
}

// AggregateMany evaluates every aggregation on its own serial pass over
// the stream — the unmerged baseline and the replay reference the oracle
// compares the consolidated operator against.
func AggregateMany(data RecordLibrary, aggs []*lang.AggProgram, opts Options) (*AggResult, error) {
	start := time.Now()
	res := &AggResult{Outputs: make([]*AggOutput, len(aggs))}
	res.Records = data.NumRecords()
	res.Aggs = len(aggs)
	res.Groups = len(aggs)
	lib := data.Clone()
	for qi, a := range aggs {
		if err := lang.CheckAgg(a); err != nil {
			return nil, err
		}
		out, err := aggregateOne(lib, a, opts, &res.AggMetrics)
		if err != nil {
			return nil, fmt.Errorf("engine: aggregation %s: %w", a.Name, err)
		}
		res.Outputs[qi] = out
	}
	res.UDFCost = res.FoldCost + res.EmitCost + res.KeyCost
	res.TotalTime = time.Since(start)
	return res, nil
}

// aggregateOne is the serial streaming semantics of one aggregation:
// windows open at their first record, fold record by record in stream
// order, emit at close; trailing partial windows emit at stream end in
// open order.
func aggregateOne(data RecordLibrary, a *lang.AggProgram, opts Options, m *AggMetrics) (*AggOutput, error) {
	n := data.NumRecords()
	out := &AggOutput{Name: a.Name, IDs: a.EmitIDs()}
	keyed := a.Window.KeyFunc != ""
	if keyed {
		out.Keys = []int64{}
	}
	accNames := a.AccNames()
	r, err := newAggRunner(a.FoldProgram(), a.EmitProgram(), accNames, out.IDs)
	if err != nil {
		return nil, err
	}
	var keys []int64
	if keyed {
		var kc int64
		t0 := time.Now()
		keys, kc, err = extractKeysSerial(data, a.Window.KeyFunc, n)
		m.UDFTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
		m.KeyCost += kc
	}
	inits := make([]int64, len(a.Accs))
	for i, d := range a.Accs {
		inits[i] = d.Init
	}
	frn := lang.NewRunner(r.foldC, data)
	frn.MaxSteps = opts.MaxSteps
	ern := lang.NewRunner(r.emitC, data)
	ern.MaxSteps = opts.MaxSteps
	args := make([]int64, 1+len(inits))

	type winState struct {
		accs []int64
		cnt  int
		key  int64
	}
	newWin := func(key int64) *winState {
		w := &winState{accs: make([]int64, len(inits)), key: key}
		copy(w.accs, inits)
		return w
	}
	closeWin := func(w *winState) error {
		var c int64
		t0 := time.Now()
		out.Vals, c, err = r.emitWindow(ern, w.accs, out.Vals)
		m.UDFTime += time.Since(t0)
		if err != nil {
			return err
		}
		m.EmitCost += c
		out.Windows++
		m.Windows++
		if keyed {
			out.Keys = append(out.Keys, w.key)
		}
		return nil
	}

	var open []*winState         // open windows in open order
	cur := map[int64]*winState{} // keyed: open window per key
	var cw *winState             // count mode: the open window
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var w *winState
		if keyed {
			w = cur[keys[i]]
			if w == nil {
				w = newWin(keys[i])
				cur[keys[i]] = w
				open = append(open, w)
			}
		} else {
			if cw == nil {
				cw = newWin(0)
				open = append(open, cw)
			}
			w = cw
		}
		c, err := r.foldStep(frn, data, i, w.accs, args)
		if err != nil {
			return nil, err
		}
		m.FoldCost += c
		w.cnt++
		if w.cnt == a.Window.Size {
			m.UDFTime += time.Since(t0)
			if err := closeWin(w); err != nil {
				return nil, err
			}
			t0 = time.Now()
			w.cnt = -1 // closed marker for the trailing sweep
			if keyed {
				delete(cur, w.key)
			} else {
				cw = nil
			}
		}
	}
	m.UDFTime += time.Since(t0)
	for _, w := range open {
		if w.cnt > 0 {
			if err := closeWin(w); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// AggregateConsolidated merges window-aligned aggregations into shared
// traversals and evaluates each group over the batched worker pool. The
// emitted windows are byte-identical to AggregateMany's at every
// Workers × BatchSize × NoHomAgg configuration.
func AggregateConsolidated(data RecordLibrary, aggs []*lang.AggProgram, copts consolidate.Options, opts Options) (*ConsolidatedAggResult, error) {
	if copts.FuncCoster == nil {
		copts.FuncCoster = data
	}
	t0 := time.Now()
	groups, err := consolidate.MergeAggs(aggs, copts)
	if err != nil {
		return nil, err
	}
	consTime := time.Since(t0)

	start := time.Now()
	res := &ConsolidatedAggResult{Groups: groups}
	res.Outputs = make([]*AggOutput, len(aggs))
	for qi, a := range aggs {
		res.Outputs[qi] = &AggOutput{Name: a.Name, IDs: a.EmitIDs()}
		if a.Window.KeyFunc != "" {
			res.Outputs[qi].Keys = []int64{}
		}
	}
	res.Records = data.NumRecords()
	res.Aggs = len(aggs)
	res.AggMetrics.Groups = len(groups)
	for _, g := range groups {
		if err := runAggGroup(data, g, opts, res.Outputs, &res.AggMetrics); err != nil {
			return nil, err
		}
	}
	res.UDFCost = res.FoldCost + res.EmitCost + res.KeyCost
	res.TotalTime = time.Since(start)
	res.ConsolidateTime = consTime
	return res, nil
}

// aggPlanWindow is one window instance in a group's execution plan.
type aggPlanWindow struct {
	key    int64
	lo, hi int32   // count mode: the contiguous record range
	recs   []int32 // keyed mode: the record indices, in stream order
	segs   []int32 // split path: per-(batch, window) segment ids, in stream order
	cnt    int
	closed bool
}

// aggPlan is the serial window/segment assignment of one group pass. It is
// pure integer work over the record count, the window spec, and (for keyed
// windows) the extracted keys; the expensive per-record evaluation then
// runs off it in parallel.
type aggPlan struct {
	keyed       bool
	nSegs       int
	segOfRecord []int32
	wins        []*aggPlanWindow // emit order: close order, then trailing partials in open order
}

func buildAggPlan(n, size, bsize int, keys []int64) *aggPlan {
	p := &aggPlan{keyed: keys != nil, segOfRecord: make([]int32, n)}
	var closedWins, openWins []*aggPlanWindow
	cur := map[int64]*aggPlanWindow{}
	var cw *aggPlanWindow
	lastSegBatch := map[*aggPlanWindow]int{}
	for i := 0; i < n; i++ {
		b := i / bsize
		var w *aggPlanWindow
		if p.keyed {
			w = cur[keys[i]]
			if w == nil {
				w = &aggPlanWindow{key: keys[i]}
				cur[keys[i]] = w
				openWins = append(openWins, w)
				lastSegBatch[w] = -1
			}
			w.recs = append(w.recs, int32(i))
		} else {
			if cw == nil {
				cw = &aggPlanWindow{lo: int32(i)}
				openWins = append(openWins, cw)
				lastSegBatch[cw] = -1
			}
			w = cw
			w.hi = int32(i + 1)
		}
		if lastSegBatch[w] != b {
			w.segs = append(w.segs, int32(p.nSegs))
			p.nSegs++
			lastSegBatch[w] = b
		}
		p.segOfRecord[i] = w.segs[len(w.segs)-1]
		w.cnt++
		if w.cnt == size {
			w.closed = true
			closedWins = append(closedWins, w)
			if p.keyed {
				delete(cur, w.key)
			} else {
				cw = nil
			}
		}
	}
	p.wins = closedWins
	for _, w := range openWins {
		if !w.closed && w.cnt > 0 {
			p.wins = append(p.wins, w)
		}
	}
	return p
}

// runAggGroup evaluates one merged group over the stream and appends its
// windows to the member outputs.
func runAggGroup(data RecordLibrary, g *consolidate.AggGroup, opts Options, outs []*AggOutput, m *AggMetrics) error {
	n := data.NumRecords()
	nAccs := len(g.Accs)
	accNames := make([]string, nAccs)
	inits := make([]int64, nAccs)
	for i, d := range g.Accs {
		accNames[i] = d.Name
		inits[i] = d.Init
	}
	denseIDs := make([]int, len(g.Outputs))
	for i := range denseIDs {
		denseIDs[i] = i
	}
	r, err := newAggRunner(g.Fold, g.Emit, accNames, denseIDs)
	if err != nil {
		return err
	}

	var keys []int64
	if g.Window.KeyFunc != "" {
		kc, kt, err := extractKeysParallel(data, g.Window.KeyFunc, n, opts, &keys)
		if err != nil {
			return err
		}
		m.KeyCost += kc
		m.UDFTime += kt
	}
	plan := buildAggPlan(n, g.Window.Size, opts.batchSize(), keys)

	// Final accumulator values per window, in plan order.
	winAccs := make([]int64, len(plan.wins)*nAccs)
	split := g.Homomorphic && !opts.NoHomAgg
	if split {
		if err := runHomSplit(data, g, r, opts, plan, nAccs, winAccs, inits, m); err != nil {
			return err
		}
	} else {
		if err := runWholeWindows(data, r, opts, plan, nAccs, winAccs, inits, m); err != nil {
			return err
		}
	}

	// Serial emit in plan order; scatter the dense columns to the members.
	ern := lang.NewRunner(r.emitC, data)
	ern.MaxSteps = opts.MaxSteps
	row := make([]int8, 0, len(g.Outputs))
	t0 := time.Now()
	for wi, w := range plan.wins {
		row = row[:0]
		var c int64
		row, c, err = r.emitWindow(ern, winAccs[wi*nAccs:(wi+1)*nAccs], row)
		if err != nil {
			return err
		}
		m.EmitCost += c
		for d, ref := range g.Outputs {
			outs[ref.Member].Vals = append(outs[ref.Member].Vals, row[d])
		}
		for _, gi := range g.Members {
			outs[gi].Windows++
			if plan.keyed {
				outs[gi].Keys = append(outs[gi].Keys, w.key)
			}
		}
		m.Windows++
	}
	m.UDFTime += time.Since(t0)
	return nil
}

// extractKeysParallel computes every record's key over the batched worker
// pool (the key function is lite relative to the fold, but the decode is
// still per record, so the stage parallelizes like any other pass).
func extractKeysParallel(data RecordLibrary, keyFunc string, n int, opts Options, out *[]int64) (int64, time.Duration, error) {
	keys := make([]int64, n)
	kc, _ := data.FuncCost(keyFunc)
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
		done     atomic.Bool
		next     atomic.Int64
		udfTime  time.Duration
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lib := data.Clone()
			arg := make([]int64, 1)
			var localTime time.Duration
			for !done.Load() {
				b := int(next.Add(1)) - 1
				if b >= nBatches {
					break
				}
				lo, hi := b*bsize, (b+1)*bsize
				if hi > n {
					hi = n
				}
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					lib.SetRecord(i)
					arg[0] = int64(i)
					k, err := lib.Call(keyFunc, arg)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("engine: key function %s on record %d: %w", keyFunc, i, err)
						}
						mu.Unlock()
						done.Store(true)
						return
					}
					keys[i] = k
				}
				localTime += time.Since(t0)
			}
			mu.Lock()
			udfTime += localTime
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	*out = keys
	return kc * int64(n), udfTime, nil
}

// runHomSplit is the homomorphic partial/combine path: workers claim
// batches and fold each record into its (batch, window) segment's partial
// accumulators, which start from the combine identities; segments are
// disjoint per batch, so no two workers touch the same partial. A serial
// pass then combines each window's segments in stream order on top of the
// declared inits — producing exactly the serial fold's finals.
func runHomSplit(data RecordLibrary, g *consolidate.AggGroup, r *aggRunner, opts Options,
	plan *aggPlan, nAccs int, winAccs, inits []int64, m *AggMetrics) error {

	n := data.NumRecords()
	parts := make([]int64, plan.nSegs*nAccs)
	for s := 0; s < plan.nSegs; s++ {
		for a, op := range g.Hom {
			parts[s*nAccs+a] = op.Identity()
		}
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
		done     atomic.Bool
		next     atomic.Int64
		cost     int64
		udfTime  time.Duration
		batches  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lib := data.Clone()
			rn := lang.NewRunner(r.foldC, lib)
			rn.MaxSteps = opts.MaxSteps
			args := make([]int64, 1+nAccs)
			var localCost int64
			var localTime time.Duration
			localBatches := 0
			for !done.Load() {
				b := int(next.Add(1)) - 1
				if b >= nBatches {
					break
				}
				lo, hi := b*bsize, (b+1)*bsize
				if hi > n {
					hi = n
				}
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					base := int(plan.segOfRecord[i]) * nAccs
					c, err := r.foldStep(rn, lib, i, parts[base:base+nAccs], args)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						done.Store(true)
						return
					}
					localCost += c
				}
				localTime += time.Since(t0)
				localBatches++
			}
			mu.Lock()
			cost += localCost
			udfTime += localTime
			batches += localBatches
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	m.FoldCost += cost
	m.UDFTime += udfTime
	m.Batches += batches

	// Serial combine: inits ⊕ the window's segment partials in stream order.
	for wi, w := range plan.wins {
		dst := winAccs[wi*nAccs : (wi+1)*nAccs]
		copy(dst, inits)
		for _, seg := range w.segs {
			base := int(seg) * nAccs
			for a, op := range g.Hom {
				dst[a] = op.Combine(dst[a], parts[base+a])
			}
		}
	}
	return nil
}

// runWholeWindows is the unsplit path: workers claim whole windows off the
// plan and fold each serially from the declared inits — a window is never
// split, so no homomorphism is needed.
func runWholeWindows(data RecordLibrary, r *aggRunner, opts Options,
	plan *aggPlan, nAccs int, winAccs, inits []int64, m *AggMetrics) error {

	nWins := len(plan.wins)
	if nWins == 0 {
		return nil
	}
	workers := opts.workers()
	if workers > nWins {
		workers = nWins
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     atomic.Bool
		next     atomic.Int64
		cost     int64
		udfTime  time.Duration
		claims   int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lib := data.Clone()
			rn := lang.NewRunner(r.foldC, lib)
			rn.MaxSteps = opts.MaxSteps
			args := make([]int64, 1+nAccs)
			var localCost int64
			var localTime time.Duration
			localClaims := 0
			for !done.Load() {
				wi := int(next.Add(1)) - 1
				if wi >= nWins {
					break
				}
				win := plan.wins[wi]
				dst := winAccs[wi*nAccs : (wi+1)*nAccs]
				copy(dst, inits)
				t0 := time.Now()
				fail := func(err error) {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					done.Store(true)
				}
				if plan.keyed {
					for _, ri := range win.recs {
						c, err := r.foldStep(rn, lib, int(ri), dst, args)
						if err != nil {
							fail(err)
							return
						}
						localCost += c
					}
				} else {
					for i := win.lo; i < win.hi; i++ {
						c, err := r.foldStep(rn, lib, int(i), dst, args)
						if err != nil {
							fail(err)
							return
						}
						localCost += c
					}
				}
				localTime += time.Since(t0)
				localClaims++
			}
			mu.Lock()
			cost += localCost
			udfTime += localTime
			claims += localClaims
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	m.FoldCost += cost
	m.UDFTime += udfTime
	m.Batches += claims
	return nil
}
