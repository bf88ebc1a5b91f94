package main

import (
	"fmt"
	"maps"
	"runtime"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/shard"
)

// A replay re-runs one engine pass on a single worker, calling the layers'
// public functions in the order the engine does — lite decode, admission
// guard, full decode, merged-program VM, library calls, publish — with a
// timer around each stage. The untraced engine pass minus the replay's
// stage sum is the engine's own time: dispatch, per-record timers and
// publish; the replay's publish stage measures the last of these apart.
//
// Each layer breakdown replays twice. The timing replay runs with call
// sampling off, so its stages carry no sampler cost; the only correction
// is the cost one timer bracket adds, measured in place by an empty
// bracket per record. The call replay runs with sampling on and supplies
// each stage's call counts and each function's per-call time.

// stageRun holds the raw totals of one replay (nanoseconds, bracket cost
// included) and the record count they cover.
type stageRun struct {
	records int

	decodeNs, decodeN int64
	liteNs, liteN     int64
	// guardNs brackets guard stages; guardReads counts their brackets and
	// guarded the (record, guard) evaluations inside them.
	guardNs, guardReads, guarded int64
	// vmNs brackets merged, pending and fold/emit runs; vmReads counts them.
	vmNs, vmReads int64
	// keyNs brackets key extraction outside the VM runs.
	keyNs, keyReads int64
	// pubNs brackets the building of per-record verdict maps.
	pubNs, pubReads int64
	// emptyNs sums emptyN empty brackets: the cost one bracket adds.
	emptyNs, emptyN int64

	guardCalls, vmCalls, keyCalls callTotals

	// verdicts are the published maps of a sharded replay.
	verdicts []map[shard.QueryID]bool
}

// bracketNs is the measured cost of one empty timer bracket.
func (s *stageRun) bracketNs() float64 {
	if s.emptyN == 0 {
		return 0
	}
	return float64(s.emptyNs) / float64(s.emptyN)
}

// emptyBracket times one empty bracket into the run's totals.
func (s *stageRun) emptyBracket() {
	t0 := nowNs()
	s.emptyNs += nowNs() - t0
	s.emptyN++
}

// layerNs holds per-record layer times with the bracket cost removed.
type layerNs struct {
	decode, lite, guard, vm, key, publish, calls float64
	// stageSum is the time of every stage but publish, each call once.
	stageSum    float64
	callsPerRec float64
	perFn       map[string][2]float64 // name -> (ns/rec, calls/rec)
	bracket     float64
}

// layers converts the totals of a timing replay a and a call replay b of
// the same pass to per-record layer times. Every stage interval of a
// includes about one bracket's cost; a sampled call interval of b covers
// callRepeat calls and one bracket.
func layers(a, b *stageRun, names []string) layerNs {
	n := float64(a.records)
	c, cb := a.bracketNs(), b.bracketNs()
	est := make([]float64, len(names))
	l := layerNs{perFn: map[string][2]float64{}, bracket: c}
	sinks := []*callTotals{&b.guardCalls, &b.vmCalls, &b.keyCalls}
	for f, name := range names {
		var cnt, samples, ns int64
		for _, ct := range sinks {
			ct.grow(len(names))
			cnt, samples, ns = cnt+ct.n[f], samples+ct.samples[f], ns+ct.ns[f]
		}
		if samples > 0 {
			est[f] = (float64(ns) - cb*float64(samples)) / float64(samples*callRepeat)
		}
		if cnt > 0 {
			l.perFn[name] = [2]float64{est[f] * float64(cnt) / n, float64(cnt) / n}
			l.callsPerRec += float64(cnt) / n
			l.calls += est[f] * float64(cnt) / n
		}
	}
	var vmCalls float64
	for f := range est {
		vmCalls += est[f] * float64(b.vmCalls.n[f])
	}
	stage := func(ns, reads int64) float64 { return (float64(ns) - c*float64(reads)) / n }
	l.decode = stage(a.decodeNs, a.decodeN)
	l.lite = stage(a.liteNs, a.liteN)
	// The guard stage keeps its calls: it is the whole admission check.
	l.guard = stage(a.guardNs, a.guardReads)
	vmStage := stage(a.vmNs, a.vmReads)
	l.vm = vmStage - vmCalls/n
	l.key = stage(a.keyNs, a.keyReads)
	l.publish = stage(a.pubNs, a.pubReads)
	l.stageSum = l.decode + l.lite + l.guard + vmStage + l.key
	return l
}

// batchSpans closes a replay batch span with its per-layer child totals.
func batchSpans(rec *recorder, b int, t *libTimes, dec0, lite0 int64, decN0, liteN0 int64,
	guardNs, guardN int64, guard *callTotals, vmNs, vmN int64, vm *callTotals, pubNs, pubN int64) {
	rec.end(b)
	rec.aggregate(b, "data.decode", t.decodeNs-dec0, t.decodeN-decN0)
	rec.aggregate(b, "data.lite", t.liteNs-lite0, t.liteN-liteN0)
	if g := rec.aggregate(b, "prefilter.guard", guardNs, guardN); g > 0 {
		callSpans(rec, g, t, guard)
	}
	if v := rec.aggregate(b, "lang.vm", vmNs, vmN); v > 0 {
		callSpans(rec, v, t, vm)
	}
	rec.aggregate(b, "engine.publish", pubNs, pubN)
}

// callSpans records each function's sampled call intervals inside parent;
// Count is the number of timed samples.
func callSpans(rec *recorder, parent int, t *libTimes, c *callTotals) {
	for f := range c.ns {
		rec.aggregate(parent, "data.call."+t.names[f], c.ns[f], c.samples[f])
	}
}

func addCalls(dst, src *callTotals) {
	dst.grow(len(src.n))
	for f := range src.n {
		dst.n[f] += src.n[f]
		dst.samples[f] += src.samples[f]
		dst.ns[f] += src.ns[f]
	}
}

// replayCluster is one cluster's state in a sharded replay: runners, and
// the note slots and shard ids its verdicts publish under, resolved as
// the engine resolves them when it installs a snapshot.
type replayCluster struct {
	merged   *lang.Runner
	guard    *lang.Runner
	g        *prefilter.Guard
	filtered bool
	pend     []*lang.Runner
	admit    []bool

	noteIdx, pendIdx   []int
	gids, pendGids     []shard.QueryID
	removed            []bool
	slotVals, pendVals []bool
}

func newReplayCluster(cs *shard.ClusterSnapshot, lib engine.RecordLibrary, bsize int) (*replayCluster, error) {
	s := cs.Snap
	c := &replayCluster{admit: make([]bool, bsize)}
	var err error
	if s.Compiled != nil {
		if c.merged, err = runner(s.Compiled, lib); err != nil {
			return nil, err
		}
		for slot, id := range s.Slots {
			k, ok := s.Compiled.NoteIndex(slot)
			if !ok {
				k = -1
			}
			c.noteIdx = append(c.noteIdx, k)
			c.gids = append(c.gids, cs.IDs[id])
			c.removed = append(c.removed, s.Removed[id])
		}
	}
	if c.filtered = s.Guard != nil && !s.Guard.Trivial && s.Compiled != nil; c.filtered {
		c.g = s.Guard
		if c.guard, err = runner(s.Guard.Compiled, lib); err != nil {
			return nil, err
		}
	}
	for _, pq := range s.Pending {
		rn, err := runner(pq.Compiled, lib)
		if err != nil {
			return nil, err
		}
		k, ok := pq.Compiled.NoteIndex(pq.NotifyID)
		if !ok {
			k = -1
		}
		c.pend = append(c.pend, rn)
		c.pendIdx = append(c.pendIdx, k)
		c.pendGids = append(c.pendGids, cs.IDs[pq.ID])
	}
	c.slotVals = make([]bool, bsize*len(c.noteIdx))
	c.pendVals = make([]bool, bsize*len(c.pend))
	return c, nil
}

// notes copies record k's verdicts out of the cluster's runners: the
// merged program's slots when admitted (false when the guard rejected the
// record), then the pending queries'.
func (c *replayCluster) notes(k int) error {
	if c.merged != nil {
		row := c.slotVals[k*len(c.noteIdx) : (k+1)*len(c.noteIdx)]
		for slot, nk := range c.noteIdx {
			v := false
			if c.admit[k] {
				var ok bool
				if v, ok = c.merged.NoteAt(nk); !ok {
					return fmt.Errorf("perfbench: replay: missing notification for slot %d", slot)
				}
			}
			row[slot] = v
		}
	}
	for j, rn := range c.pend {
		v, ok := rn.NoteAt(c.pendIdx[j])
		if !ok {
			return fmt.Errorf("perfbench: replay: pending query %d did not notify", c.pendGids[j])
		}
		c.pendVals[k*len(c.pend)+j] = v
	}
	return nil
}

// publish builds the verdict map of each record of a batch, as the
// engine's publish stage does.
func publish(cls []*replayCluster, lo, hi int, out []map[shard.QueryID]bool) {
	size := 0
	for _, c := range cls {
		size += len(c.noteIdx) + len(c.pend)
	}
	for i := lo; i < hi; i++ {
		k := i - lo
		verdicts := make(map[shard.QueryID]bool, size)
		for _, c := range cls {
			if c.merged != nil {
				ns := len(c.noteIdx)
				for slot, gid := range c.gids {
					if !c.removed[slot] {
						verdicts[gid] = c.slotVals[k*ns+slot]
					}
				}
			}
			np := len(c.pend)
			for j, gid := range c.pendGids {
				verdicts[gid] = c.pendVals[k*np+j]
			}
		}
		out[i] = verdicts
	}
}

// sameVerdicts checks a replay's verdict maps against an engine pass's.
func sameVerdicts(replay, pass []map[shard.QueryID]bool) error {
	if len(replay) != len(pass) {
		return fmt.Errorf("replay published %d records, pass %d", len(replay), len(pass))
	}
	for i := range pass {
		if !maps.Equal(replay[i], pass[i]) {
			return fmt.Errorf("record %d: replay verdicts differ from the engine pass", i)
		}
	}
	return nil
}

// replaySharded mirrors engine.WhereSharded's two-level evaluation of snap
// on one worker. lib must be the traced view whose totals t holds.
func replaySharded(lib engine.RecordLibrary, t *libTimes, snap *shard.Snapshot, bsize int, rec *recorder, op, parent int) (*stageRun, error) {
	lite, _ := lib.(engine.LiteSpanLibrary)
	cls := make([]*replayCluster, len(snap.Clusters))
	anyLite := false
	for i := range snap.Clusters {
		c, err := newReplayCluster(&snap.Clusters[i], lib, bsize)
		if err != nil {
			return nil, err
		}
		cls[i] = c
		anyLite = anyLite || (c.filtered && lite != nil)
	}
	n := lib.NumRecords()
	out := &stageRun{records: n, verdicts: make([]map[shard.QueryID]bool, n)}
	var guardCalls, vmCalls callTotals
	runGuard := func(c *replayCluster, i, k int) {
		if _, err := c.guard.RunDense1(int64(i)); err == nil {
			c.admit[k] = c.g.Admits(c.guard)
		}
	}
	for lo := 0; lo < n; lo += bsize {
		hi := min(lo+bsize, n)
		b := rec.begin(op, parent, "replay.batch")
		dec0, decN0, lite0, liteN0 := t.decodeNs, t.decodeN, t.liteNs, t.liteN
		guardCalls.reset(len(t.names))
		vmCalls.reset(len(t.names))
		var guardNs, guardN, vmNs, vmN int64
		for _, c := range cls {
			for k := 0; k < hi-lo; k++ {
				c.admit[k] = true
			}
		}
		if anyLite {
			lite.SetRecordLiteSpan(lo, hi)
			t.sink = &guardCalls
			g0 := nowNs()
			for i := lo; i < hi; i++ {
				lite.SetRecordLite(i)
				for _, c := range cls {
					if c.filtered {
						runGuard(c, i, i-lo)
						out.guarded++
					}
				}
			}
			guardNs += nowNs() - g0
			guardN++
		}
		for i := lo; i < hi; i++ {
			k := i - lo
			out.emptyBracket()
			decoded := false
			for _, c := range cls {
				if c.filtered && lite == nil {
					if !decoded {
						lib.SetRecord(i)
						decoded = true
					}
					t.sink = &guardCalls
					g0 := nowNs()
					runGuard(c, i, k)
					guardNs += nowNs() - g0
					guardN++
					out.guarded++
				}
				if (c.admit[k] && c.merged != nil) || len(c.pend) > 0 {
					if !decoded {
						lib.SetRecord(i)
						decoded = true
					}
				}
				t.sink = &vmCalls
				if c.admit[k] && c.merged != nil {
					v0 := nowNs()
					if _, err := c.merged.RunDense1(int64(i)); err != nil {
						return nil, fmt.Errorf("perfbench: replay record %d: %w", i, err)
					}
					vmNs += nowNs() - v0
					vmN++
				}
				for _, rn := range c.pend {
					v0 := nowNs()
					if _, err := rn.RunDense1(int64(i)); err != nil {
						return nil, fmt.Errorf("perfbench: replay pending on record %d: %w", i, err)
					}
					vmNs += nowNs() - v0
					vmN++
				}
				if err := c.notes(k); err != nil {
					return nil, fmt.Errorf("%w on record %d", err, i)
				}
			}
		}
		t.sink = &t.all
		p0 := nowNs()
		publish(cls, lo, hi, out.verdicts)
		pubNs := nowNs() - p0
		batchSpans(rec, b, t, dec0, lite0, decN0, liteN0, guardNs, guardN, &guardCalls, vmNs, vmN, &vmCalls, pubNs, 1)
		out.guardNs += guardNs
		out.guardReads += guardN
		out.vmNs += vmNs
		out.vmReads += vmN
		out.pubNs += pubNs
		out.pubReads++
		addCalls(&out.guardCalls, &guardCalls)
		addCalls(&out.vmCalls, &vmCalls)
	}
	out.decodeNs, out.decodeN, out.liteNs, out.liteN = t.decodeNs, t.decodeN, t.liteNs, t.liteN
	return out, nil
}

func runner(c *lang.Compiled, lib lang.Library) (*lang.Runner, error) {
	rn := lang.NewRunner(c, lib)
	return rn, rn.BeginBatch1()
}

// replayAgg folds the stream through each merged group serially — key
// extraction, then the merged fold per record and the merged emit per
// window, the work engine.AggregateConsolidated spreads over its workers.
func replayAgg(lib engine.RecordLibrary, t *libTimes, groups []*consolidate.AggGroup, bsize int, rec *recorder, op, parent int) (*stageRun, error) {
	n := lib.NumRecords()
	out := &stageRun{records: n}
	var vmCalls, keyCalls callTotals
	for _, g := range groups {
		fc, err := lang.Compile(g.Fold)
		if err != nil {
			return nil, err
		}
		ec, err := lang.Compile(g.Emit)
		if err != nil {
			return nil, err
		}
		frn, ern := lang.NewRunner(fc, lib), lang.NewRunner(ec, lib)
		slots := make([]int, len(g.Accs))
		inits := make([]int64, len(g.Accs))
		for a, d := range g.Accs {
			s, ok := fc.SlotIndex(d.Name)
			if !ok {
				return nil, fmt.Errorf("perfbench: merged fold never assigns %q", d.Name)
			}
			slots[a], inits[a] = s, d.Init
		}
		type window struct {
			accs []int64
			cnt  int
		}
		open := map[int64]*window{}
		var order []int64
		args := make([]int64, 1+len(inits))
		keyArg := make([]int64, 1)
		emit := func(w *window) error {
			v0 := nowNs()
			_, err := ern.RunDense(w.accs)
			out.vmNs += nowNs() - v0
			out.vmReads++
			return err
		}
		for lo := 0; lo < n; lo += bsize {
			hi := min(lo+bsize, n)
			b := rec.begin(op, parent, "replay.batch")
			dec0, decN0 := t.decodeNs, t.decodeN
			vm0, vmN0 := out.vmNs, out.vmReads
			key0, keyN0 := out.keyNs, out.keyReads
			vmCalls.reset(len(t.names))
			keyCalls.reset(len(t.names))
			for i := lo; i < hi; i++ {
				out.emptyBracket()
				var key int64
				if g.Window.KeyFunc != "" {
					lib.SetRecord(i)
					t.sink = &keyCalls
					keyArg[0] = int64(i)
					k0 := nowNs()
					key, err = lib.Call(g.Window.KeyFunc, keyArg)
					out.keyNs += nowNs() - k0
					out.keyReads++
					if err != nil {
						return nil, err
					}
				}
				w := open[key]
				if w == nil {
					w = &window{accs: append([]int64(nil), inits...)}
					open[key] = w
					order = append(order, key)
				}
				lib.SetRecord(i)
				t.sink = &vmCalls
				args[0] = int64(i)
				copy(args[1:], w.accs)
				v0 := nowNs()
				if _, err := frn.RunDense(args); err != nil {
					return nil, fmt.Errorf("perfbench: replay fold on record %d: %w", i, err)
				}
				out.vmNs += nowNs() - v0
				out.vmReads++
				for a, s := range slots {
					if v, ok := frn.SlotAt(s); ok {
						w.accs[a] = v
					}
				}
				if w.cnt++; w.cnt == g.Window.Size {
					if err := emit(w); err != nil {
						return nil, err
					}
					delete(open, key)
				}
			}
			t.sink = &t.all
			rec.end(b)
			rec.aggregate(b, "data.decode", t.decodeNs-dec0, t.decodeN-decN0)
			if k := rec.aggregate(b, "data.key", out.keyNs-key0, out.keyReads-keyN0); k > 0 {
				callSpans(rec, k, t, &keyCalls)
			}
			if v := rec.aggregate(b, "lang.vm", out.vmNs-vm0, out.vmReads-vmN0); v > 0 {
				callSpans(rec, v, t, &vmCalls)
			}
			addCalls(&out.vmCalls, &vmCalls)
			addCalls(&out.keyCalls, &keyCalls)
		}
		t.sink = &vmCalls
		vmCalls.reset(len(t.names))
		for _, key := range order {
			if w := open[key]; w != nil {
				if err := emit(w); err != nil {
					return nil, err
				}
				delete(open, key)
			}
		}
		addCalls(&out.vmCalls, &vmCalls)
		t.sink = &t.all
	}
	out.decodeNs, out.decodeN = t.decodeNs, t.decodeN
	return out, nil
}

// traceLayers breaks one standing pass into layers: the untraced pass at
// one worker around the timing replay, whose stage times leave the
// engine's own time as the remainder; then the same pass over the traced
// dataset wrapper (the tracing overhead) and the call replay. check, when
// set, compares the timing replay with the traced pass.
func (r *run) traceLayers(ds engine.RecordLibrary,
	pass func(lib engine.RecordLibrary, workers int) (time.Duration, error),
	replay func(lib engine.RecordLibrary, op, parent int) (*stageRun, error),
	check func(replay *stageRun) error) error {
	op := r.rec.newOp()
	root := r.rec.begin(op, 0, "op.layers")
	defer r.rec.end(root)
	// Each timed pass and timing replay starts from a collected heap, so
	// garbage one leaves behind is not collected inside the next.
	untraced := func() (time.Duration, error) {
		runtime.GC()
		s := r.rec.begin(op, root, "engine.pass.w1")
		defer r.rec.end(s)
		return pass(ds, 1)
	}
	lib, err := wrap(ds, r.lt)
	if err != nil {
		return err
	}
	replayAs := func(name string, sample bool) (*stageRun, error) {
		r.lt.clearAll(sample)
		runtime.GC()
		s := r.rec.begin(op, root, name)
		defer r.rec.end(s)
		return replay(lib, op, s)
	}
	w1a, err := untraced()
	if err != nil {
		return err
	}
	a, err := replayAs("replay", false)
	if err != nil {
		return err
	}
	// The untraced passes bracket the timing replay, so drift between them
	// cancels out of the engine's remainder.
	w1b, err := untraced()
	if err != nil {
		return err
	}
	w1 := (w1a + w1b) / 2
	r.lt.clearAll(true)
	s := r.rec.begin(op, root, "engine.pass.w1.traced")
	traced, err := pass(lib, 1)
	r.rec.end(s)
	if err != nil {
		return err
	}
	if check != nil {
		if err := check(a); err != nil {
			return err
		}
	}
	b, err := replayAs("replay.calls", true)
	if err != nil {
		return err
	}
	l := layers(a, b, r.lt.names)
	n := float64(a.records)
	w1ns := float64(w1) / n
	r.add("data.decode_ns_per_rec", l.decode)
	r.add("data.decode_share", l.decode/w1ns)
	r.add("data.calls_per_rec", l.callsPerRec)
	r.add("data.call_ns_per_rec", l.calls)
	for fn, v := range l.perFn {
		r.add("data.call_ns_per_rec."+fn, v[0])
		r.add("data.calls_per_rec."+fn, v[1])
	}
	r.add("lang.vm_ns_per_rec", l.vm)
	if a.liteN > 0 {
		r.add("data.lite_ns_per_rec", l.lite)
	}
	if a.guarded > 0 {
		r.add("prefilter.guard_ns_per_rec", l.guard*n/float64(a.guarded))
	}
	if a.keyReads > 0 {
		r.add("data.key_ns_per_rec", l.key)
	}
	if a.pubReads > 0 {
		r.add("engine.publish_ns_per_rec", l.publish)
	}
	r.add("engine.self_ns_per_rec", w1ns-l.stageSum)
	r.add("engine.rec_per_s_w1", n/w1.Seconds())
	r.add("trace.stage_sum_ns_per_rec", l.stageSum)
	r.add("trace.bracket_ns", l.bracket)
	r.add("trace.overhead", float64(w1)/float64(traced))
	return nil
}
