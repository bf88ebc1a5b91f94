package engine

import (
	"fmt"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// clusterSnap is one cluster of a pass generation: a registry snapshot and
// its local→global id mapping (nil maps every id to itself).
type clusterSnap struct {
	snap *registry.Snapshot
	ids  map[registry.QueryID]shard.QueryID
}

func (c clusterSnap) global(id registry.QueryID) uint64 {
	if c.ids == nil {
		return uint64(id)
	}
	return uint64(c.ids[id])
}

// genSource serves the generation a batch runs against. It returns the
// current generation number and, when that differs from cur or fresh is
// set, the generation's clusters with swap = true. The pass calls it once
// per batch, so a new generation takes effect atomically at a batch
// boundary.
type genSource func(cur uint64, fresh bool) (gen uint64, cls []clusterSnap, swap bool)

// frozenSource serves one fixed one-cluster generation 0.
func frozenSource(cs clusterSnap) genSource {
	cls := []clusterSnap{cs}
	return func(_ uint64, fresh bool) (uint64, []clusterSnap, bool) { return 0, cls, fresh }
}

// passCluster is one cluster's resolved state within a worker's current
// generation: runners, note slots, the local→global id mapping flattened
// to slot order, and flat per-batch scratch. Latency accumulates into
// per-slot slices so the evaluation stages stay map-free and
// allocation-free; bankLatency folds them by global id.
type passCluster struct {
	gen      uint64
	mergedRn *lang.Runner
	// guard and guardRn are set only for a non-trivial guard over a merged
	// program. The guard swaps with the snapshot it was synthesized for: it
	// gates only that snapshot's Merged, so it can never filter a record a
	// pending (not yet consolidated) query would notify on — pending
	// queries run verbatim regardless of the verdict.
	guard    *prefilter.Guard
	guardRn  *lang.Runner
	noteIdx  []int    // slot -> dense note slot, -1 when Merged cannot broadcast it
	gids     []uint64 // slot -> global id
	removed  []bool   // slot -> removed since Merged was built
	pendRns  []*lang.Runner
	pendIdx  []int
	pendGids []uint64

	// Per-batch scratch: the admission verdict per record; the guard's
	// share of each record's latency stamps (its cost on an admitted
	// record, its notification cost on a rejected one); the merged
	// program's slot verdicts (stride len(noteIdx)); and the pending
	// queries' verdicts (stride len(pendRns)).
	admit    []bool
	gstamp   []int64
	slotVals []bool
	pendVals []bool
	latSlot  []int64
	latPend  []int64
}

// snapPass is one worker's evaluation state for the snapshot pass behind
// WhereConsolidated, WhereRegistry and WhereSharded: per-swap cluster
// resolution and per-batch two-level evaluation into flat scratch. The
// front ends differ only in their genSource and in how they publish the
// scratch.
type snapPass struct {
	lib  RecordLibrary
	lite LiteRecordLibrary
	span LiteSpanLibrary
	opts Options
	src  genSource

	gen    uint64
	loaded bool
	// runners are cached per compiled program and survive swaps that keep
	// the program (delta snapshots share the stale Merged, and a pending
	// query's compiled form is stable until it is consolidated).
	runners map[*lang.Compiled]*lang.Runner
	cls     []passCluster
	// fused is set when some guard must run after the full decode (no lite
	// decode available); pending when the generation has verbatim queries.
	// Either forces the full decode of every record.
	fused, pending bool
	// dense, when set, is the pass's contiguous verdict backing: a frozen
	// one-cluster pass evaluates each batch straight into its result rows.
	dense []bool
	// lat banks latency from superseded generations by global id.
	lat map[uint64]int64
}

func newSnapPass(lib RecordLibrary, opts Options, src genSource) *snapPass {
	p := &snapPass{
		lib: lib, opts: opts, src: src,
		runners: map[*lang.Compiled]*lang.Runner{},
		lat:     map[uint64]int64{},
	}
	p.lite, _ = lib.(LiteRecordLibrary)
	p.span, _ = lib.(LiteSpanLibrary)
	return p
}

// batch is the pass's batchFn: load the generation for [lo, hi), swapping
// if it changed, then evaluate the batch.
func (p *snapPass) batch(lo, hi int, m *Metrics) error {
	if gen, cls, swap := p.src(p.gen, !p.loaded); swap {
		if p.loaded {
			m.Swaps++
		}
		if err := p.swapTo(gen, cls); err != nil {
			return fmt.Errorf("engine: gen %d: %w", gen, err)
		}
	}
	if p.dense != nil {
		c := &p.cls[0]
		c.slotVals = p.dense[lo*len(c.noteIdx) : hi*len(c.noteIdx)]
	}
	return p.evalBatch(lo, hi, m)
}

func (p *snapPass) runner(c *lang.Compiled) (*lang.Runner, error) {
	rn, ok := p.runners[c]
	if !ok {
		rn = lang.NewRunner(c, p.lib)
		rn.MaxSteps = p.opts.MaxSteps
		if err := rn.BeginBatch1(); err != nil {
			return nil, err
		}
		p.runners[c] = rn
	}
	return rn, nil
}

// noteSlot resolves notify id to its dense note slot in c, or -1 when c can
// never broadcast it (reported per record, as a missing notification).
func noteSlot(c *lang.Compiled, id int) int {
	if k, ok := c.NoteIndex(id); ok {
		return k
	}
	return -1
}

// swapTo installs a new generation: bank the old generation's latency,
// prune runners for programs no cluster still runs, resolve every
// cluster's runners, note slots, and id mapping once, and size the flat
// scratch for its slot and pending counts.
func (p *snapPass) swapTo(gen uint64, snaps []clusterSnap) error {
	p.bankLatency()
	keep := map[*lang.Compiled]bool{}
	for _, cs := range snaps {
		for _, c := range cs.snap.RunnerKeep() {
			keep[c] = true
		}
	}
	for c := range p.runners {
		if !keep[c] {
			delete(p.runners, c)
		}
	}
	bsize := p.opts.batchSize()
	p.gen, p.loaded = gen, true
	p.fused, p.pending = false, false
	p.cls = make([]passCluster, len(snaps))
	for i, cs := range snaps {
		snap, c := cs.snap, &p.cls[i]
		c.gen = snap.Gen
		var err error
		if snap.Compiled != nil {
			if c.mergedRn, err = p.runner(snap.Compiled); err != nil {
				return err
			}
			for slot, id := range snap.Slots {
				c.noteIdx = append(c.noteIdx, noteSlot(snap.Compiled, slot))
				c.gids = append(c.gids, cs.global(id))
				c.removed = append(c.removed, snap.Removed[id])
			}
			if g := snap.Guard; g != nil && !g.Trivial {
				if c.guardRn, err = p.runner(g.Compiled); err != nil {
					return err
				}
				c.guard = g
				p.fused = p.fused || p.lite == nil
			}
		}
		for _, pq := range snap.Pending {
			rn, err := p.runner(pq.Compiled)
			if err != nil {
				return err
			}
			c.pendRns = append(c.pendRns, rn)
			c.pendIdx = append(c.pendIdx, noteSlot(pq.Compiled, pq.NotifyID))
			c.pendGids = append(c.pendGids, cs.global(pq.ID))
		}
		p.pending = p.pending || len(c.pendRns) > 0
		c.admit = make([]bool, bsize)
		c.gstamp = make([]int64, bsize)
		c.slotVals = make([]bool, bsize*len(c.noteIdx))
		c.pendVals = make([]bool, bsize*len(c.pendRns))
		c.latSlot = make([]int64, len(c.noteIdx))
		c.latPend = make([]int64, len(c.pendRns))
	}
	return nil
}

// evalBatch runs the two-level stages over records [lo, hi) against the
// current generation. Stage A lite-decodes the span once and runs every
// guarded cluster's guard per record; stage B pays the full decode only
// for records some cluster admitted (or that a pending query or a fused
// guard must see) and runs only the admitted clusters' merged programs.
// Steady state performs no allocations.
func (p *snapPass) evalBatch(lo, hi int, m *Metrics) error {
	liteGuards := false
	for ci := range p.cls {
		c := &p.cls[ci]
		for k := range c.admit[:hi-lo] {
			c.admit[k], c.gstamp[k] = true, 0
		}
		liteGuards = liteGuards || (c.guardRn != nil && p.lite != nil)
	}
	if liteGuards {
		if p.span != nil {
			p.span.SetRecordLiteSpan(lo, hi)
		}
		// One timer pair covers the stage (the lite decode is near-zero by
		// contract, so including it keeps the metric honest without a
		// per-record timer read).
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			p.lite.SetRecordLite(i)
			for ci := range p.cls {
				if c := &p.cls[ci]; c.guardRn != nil {
					p.runGuard(c, i, i-lo, m)
				}
			}
		}
		m.UDFTime += time.Since(t0)
	}
	for i := lo; i < hi; i++ {
		k := i - lo
		// A record every cluster with a merged program rejected on its lite
		// guard needs no full decode: only verdict rows and latency stamps
		// to write.
		decode := p.fused || p.pending
		for ci := 0; ci < len(p.cls) && !decode; ci++ {
			decode = p.cls[ci].admit[k] && p.cls[ci].mergedRn != nil
		}
		if decode {
			p.lib.SetRecord(i)
		}
		if err := p.evalRecord(i, k, m); err != nil {
			return err
		}
	}
	return nil
}

// evalRecord is stage B for record i (scratch index k), after any full
// decode it needs: fused guards, every admitted cluster's merged program,
// and the verbatim pending queries. Each run is timed on its own, so
// UDFTime excludes the decode and the verdict bookkeeping.
func (p *snapPass) evalRecord(i, k int, m *Metrics) error {
	for ci := range p.cls {
		c := &p.cls[ci]
		if c.guardRn != nil && p.lite == nil {
			t0 := time.Now()
			p.runGuard(c, i, k, m)
			m.UDFTime += time.Since(t0)
		}
		ns := len(c.noteIdx)
		row := c.slotVals[k*ns : (k+1)*ns]
		if !c.admit[k] {
			m.Rejected++
			// The guard is a necessary condition for every notification of
			// this cluster's merged program: all slot verdicts false,
			// latencies stamped at the guard's notification cost. The ids
			// must still all be broadcastable — the same structural check
			// the full run performs.
			for slot, nk := range c.noteIdx {
				if nk == -1 {
					return fmt.Errorf("engine: gen %d missing notification for slot %d on record %d", c.gen, slot, i)
				}
				row[slot] = false
				c.latSlot[slot] += c.gstamp[k]
			}
			continue
		}
		m.Admitted++
		if c.mergedRn == nil {
			continue
		}
		t0 := time.Now()
		cost, err := c.mergedRn.RunDense1(int64(i))
		m.UDFTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("engine: merged program (gen %d) on record %d: %w", c.gen, i, err)
		}
		m.UDFCost += cost
		for slot, nk := range c.noteIdx {
			v, ok := c.mergedRn.NoteAt(nk)
			if !ok {
				return fmt.Errorf("engine: gen %d missing notification for slot %d on record %d", c.gen, slot, i)
			}
			row[slot] = v
			c.latSlot[slot] += c.gstamp[k] + c.mergedRn.NoteCostAt(nk)
		}
	}
	for ci := range p.cls {
		c := &p.cls[ci]
		np := len(c.pendRns)
		for j, rn := range c.pendRns {
			t0 := time.Now()
			cost, err := rn.RunDense1(int64(i))
			m.UDFTime += time.Since(t0)
			if err != nil {
				return fmt.Errorf("engine: pending query %d on record %d: %w", c.pendGids[j], i, err)
			}
			v, ok := rn.NoteAt(c.pendIdx[j])
			if !ok {
				return fmt.Errorf("engine: pending query %d did not notify on record %d", c.pendGids[j], i)
			}
			c.pendVals[k*np+j] = v
			c.latPend[j] += rn.NoteCostAt(c.pendIdx[j])
			m.UDFCost += cost
			m.PendingRuns++
		}
	}
	return nil
}

// runGuard evaluates one cluster's admission guard on record i (scratch
// index k). A guard runtime error fails open: the cluster's merged program
// decides, and no guard cost is counted for the errored run.
func (p *snapPass) runGuard(c *passCluster, i, k int, m *Metrics) {
	cost, err := c.guardRn.RunDense1(int64(i))
	if err != nil {
		return
	}
	m.UDFCost += cost
	m.GuardCost += cost
	if c.guard.Admits(c.guardRn) {
		c.gstamp[k] = cost
	} else {
		c.admit[k] = false
		c.gstamp[k] = c.guardRn.NoteCostAt(c.guard.NoteIdx)
	}
}

// bankLatency folds the current generation's per-slot latency buckets into
// the worker's bank; slot indices are only meaningful within one
// generation, so this runs before every swap and once at worker exit.
func (p *snapPass) bankLatency() {
	for ci := range p.cls {
		c := &p.cls[ci]
		for slot, v := range c.latSlot {
			if v != 0 {
				p.lat[c.gids[slot]] += v
			}
		}
		for j, v := range c.latPend {
			if v != 0 {
				p.lat[c.pendGids[j]] += v
			}
		}
	}
}

// latency banks the current generation and returns the worker's latency
// sums by global id; a fold step calls it exactly once, after the worker's
// last batch (a second call would bank the generation twice).
func (p *snapPass) latency() map[uint64]int64 {
	p.bankLatency()
	return p.lat
}
