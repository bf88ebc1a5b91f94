package oracle

import (
	"fmt"
	"math/rand"

	"consolidation/internal/engine"
	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// diffShardVsGlobal reports the first per-record notification-set
// divergence between a sharded pass and the single global registry over
// the same queries, under the id correspondence. Only verdict sets are
// comparable across the two topologies — per-cluster merged programs
// legitimately cost differently than one global merged program.
func diffShardVsGlobal(label string, gref *engine.RegistryResult, sref *engine.ShardedResult, toShard map[registry.QueryID]shard.QueryID) string {
	if len(gref.Verdicts) != len(sref.Verdicts) {
		return fmt.Sprintf("%s: %d sharded verdict rows, global has %d", label, len(sref.Verdicts), len(gref.Verdicts))
	}
	for i := range gref.Verdicts {
		if len(gref.Verdicts[i]) != len(sref.Verdicts[i]) {
			return fmt.Sprintf("%s: record %d notifies %d sharded queries, global %d",
				label, i, len(sref.Verdicts[i]), len(gref.Verdicts[i]))
		}
		for gid, v := range gref.Verdicts[i] {
			sv, ok := sref.Verdicts[i][toShard[gid]]
			if !ok {
				return fmt.Sprintf("%s: record %d: query %d (shard id %d) missing from sharded verdicts", label, i, gid, toShard[gid])
			}
			if sv != v {
				return fmt.Sprintf("%s: record %d query %d (shard id %d) is %v sharded, %v global", label, i, gid, toShard[gid], sv, v)
			}
		}
	}
	return ""
}

// diffShardVsMany reports the first per-record divergence between a
// sharded pass over a clean snapshot and WhereMany over the live queries,
// where ids[q] is the shard id of WhereMany's column q.
func diffShardVsMany(label string, many *engine.Result, sref *engine.ShardedResult, ids []shard.QueryID) string {
	if len(many.Bools) != len(sref.Verdicts) {
		return fmt.Sprintf("%s: %d sharded verdict rows, whereMany has %d", label, len(sref.Verdicts), len(many.Bools))
	}
	for i, row := range many.Bools {
		if len(sref.Verdicts[i]) != len(ids) {
			return fmt.Sprintf("%s: record %d notifies %d sharded queries, %d live", label, i, len(sref.Verdicts[i]), len(ids))
		}
		for q, sid := range ids {
			sv, ok := sref.Verdicts[i][sid]
			if !ok || sv != row[q] {
				return fmt.Sprintf("%s: record %d query %d is %v/%v sharded, %v under whereMany", label, i, sid, sv, ok, row[q])
			}
		}
	}
	return ""
}

// diffSharded reports the first divergence between two sharded passes:
// verdict maps, generation stamps, abstract costs (total and guard share),
// admission counts, pending/suppression counts, or per-query latency stamp
// sums. Batches, Swaps, and wall-clock fields are dispatch-shaped and
// exempt.
func diffSharded(label string, ref, got *engine.ShardedResult) string {
	if len(ref.Verdicts) != len(got.Verdicts) {
		return fmt.Sprintf("%s: %d verdict rows, reference has %d", label, len(got.Verdicts), len(ref.Verdicts))
	}
	for i := range ref.Verdicts {
		if len(ref.Verdicts[i]) != len(got.Verdicts[i]) {
			return fmt.Sprintf("%s: record %d has %d verdicts, reference %d", label, i, len(got.Verdicts[i]), len(ref.Verdicts[i]))
		}
		for id, v := range ref.Verdicts[i] {
			gv, ok := got.Verdicts[i][id]
			if !ok || gv != v {
				return fmt.Sprintf("%s: verdict [record %d, query %d] is %v/%v, reference says %v", label, i, id, gv, ok, v)
			}
		}
		if ref.Gens[i] != got.Gens[i] {
			return fmt.Sprintf("%s: record %d admitted at gen %d, reference gen %d", label, i, got.Gens[i], ref.Gens[i])
		}
	}
	if ref.UDFCost != got.UDFCost {
		return fmt.Sprintf("%s: UDF cost %d, reference %d", label, got.UDFCost, ref.UDFCost)
	}
	if ref.GuardCost != got.GuardCost {
		return fmt.Sprintf("%s: guard cost %d, reference %d", label, got.GuardCost, ref.GuardCost)
	}
	if ref.Admitted != got.Admitted || ref.Rejected != got.Rejected {
		return fmt.Sprintf("%s: admitted/rejected %d/%d, reference %d/%d",
			label, got.Admitted, got.Rejected, ref.Admitted, ref.Rejected)
	}
	if ref.PendingRuns != got.PendingRuns || ref.SuppressedNotifies != got.SuppressedNotifies {
		return fmt.Sprintf("%s: pending/suppressed %d/%d, reference %d/%d",
			label, got.PendingRuns, got.SuppressedNotifies, ref.PendingRuns, ref.SuppressedNotifies)
	}
	if len(ref.LatencySum) != len(got.LatencySum) {
		return fmt.Sprintf("%s: %d latency entries, reference %d", label, len(got.LatencySum), len(ref.LatencySum))
	}
	for id, v := range ref.LatencySum {
		if got.LatencySum[id] != v {
			return fmt.Sprintf("%s: latency stamp sum of query %d is %d, reference %d", label, id, got.LatencySum[id], v)
		}
	}
	return ""
}

// CheckSharded holds the similarity-sharded registry to its equivalence
// contract on a generated batch under churn: the batch's (total-notify)
// queries are subscribed to both a ShardedRegistry — MaxClusterSize 2, so
// routing and rebalance splits spread them across several clusters — and a
// single global Registry; Add/Remove events interleave with record passes,
// and at every step the sharded pass must notify exactly the queries the
// global registry does (dirty delta snapshots included) and, after every
// flush, exactly the verdicts WhereMany gives over the live set, while every
// Workers/BatchSize combination of WhereSharded must reproduce the
// record-at-a-time sharded reference byte-identically — verdicts,
// generation stamps, abstract costs, admission counts, latency stamp sums.
// nil means every step matched.
func CheckSharded(b *Batch, events int) *Failure {
	if len(b.Inputs) == 0 {
		return nil
	}
	// Screen out partial-notify shapes, exactly as the batch-parity check
	// does: engine filter UDFs must notify on every record.
	udfs := make([]*lang.Program, 0, len(b.Progs))
	probe := newInputLibrary(b.Inputs)
	for _, p := range b.Progs {
		w := wrapForEngine(p)
		total := true
		for i := range b.Inputs {
			probe.SetRecord(i)
			res, err := run(probe, w, []int64{int64(i)})
			if err != nil {
				return failf(CheckErr, b, "wrapped %s on record %d: %v", w.Name, i, err)
			}
			if _, ok := res.Notes[1]; !ok {
				total = false
				break
			}
		}
		if total {
			udfs = append(udfs, w)
		}
	}
	if len(udfs) < 2 {
		return nil
	}

	d := newInputLibrary(b.Inputs)
	pf := &prefilter.Options{Coster: d, MaxCallCost: d.LiteCostBound()}
	sh, err := shard.New(shard.Options{
		Registry:       registry.Options{Prefilter: pf},
		MaxClusterSize: 2,
		MinSimilarity:  -1,
	})
	if err != nil {
		return failf(CheckErr, b, "shard.New: %v", err)
	}
	defer sh.Close()
	greg, err := registry.New(registry.Options{Prefilter: pf})
	if err != nil {
		return failf(CheckErr, b, "registry.New: %v", err)
	}
	defer greg.Close()

	toShard := map[registry.QueryID]shard.QueryID{}
	progOf := map[shard.QueryID]*lang.Program{}
	var liveS []shard.QueryID
	var liveG []registry.QueryID
	clones := 0
	add := func(src *lang.Program) *Failure {
		q := *src
		q.Name = fmt.Sprintf("%s_s%d", src.Name, clones)
		clones++
		sid, err := sh.Add(&q)
		if err != nil {
			return failf(CheckErr, b, "shard.Add(%s): %v", q.Name, err)
		}
		gid, err := greg.Add(&q)
		if err != nil {
			return failf(CheckErr, b, "registry.Add(%s): %v", q.Name, err)
		}
		toShard[gid] = sid
		progOf[sid] = &q
		liveS = append(liveS, sid)
		liveG = append(liveG, gid)
		return nil
	}

	// pass runs both topologies record-at-a-time on their current snapshots
	// (flushed or dirty) and diffs the notification sets.
	pass := func(event string) (*engine.ShardedResult, *Failure) {
		sref, err := engine.WhereSharded(d, sh, engine.Options{Workers: 1, BatchSize: 1})
		if err != nil {
			return nil, failf(CheckErr, b, "WhereSharded after %s: %v", event, err)
		}
		gref, err := engine.WhereRegistry(d, greg, engine.Options{Workers: 1, BatchSize: 1})
		if err != nil {
			return nil, failf(CheckErr, b, "WhereRegistry after %s: %v", event, err)
		}
		if msg := diffShardVsGlobal("after "+event, gref, sref, toShard); msg != "" {
			f := failf(CheckShard, b, "%s", msg)
			f.Events = events
			return nil, f
		}
		return sref, nil
	}
	// matrix re-runs the sharded pass at adversarial Workers/BatchSize
	// combinations against the record-at-a-time reference.
	rng := rand.New(rand.NewSource(b.Seed ^ 0x51A2DB01))
	workers := []int{2, 3, 4}
	matrix := func(event string, sref *engine.ShardedResult) *Failure {
		for si, bs := range batchSizesFor(len(b.Inputs), rng) {
			w := workers[si%len(workers)]
			label := fmt.Sprintf("after %s, workers=%d batch=%d", event, w, bs)
			got, err := engine.WhereSharded(d, sh, engine.Options{Workers: w, BatchSize: bs})
			if err != nil {
				return failf(CheckErr, b, "WhereSharded %s: %v", label, err)
			}
			if msg := diffSharded(label, sref, got); msg != "" {
				f := failf(CheckShard, b, "%s", msg)
				f.Events = events
				return f
			}
		}
		return nil
	}
	flush := func(event string) *Failure {
		if _, err := sh.Flush(); err != nil {
			return failf(CheckErr, b, "shard.Flush after %s: %v", event, err)
		}
		if _, err := greg.Flush(); err != nil {
			return failf(CheckErr, b, "registry.Flush after %s: %v", event, err)
		}
		return nil
	}
	// vsMany holds a clean sharded pass to WhereMany over the live set: the
	// sharded-vs-global diff runs the same pass code on both sides, so this
	// is the reference that shares none of it.
	vsMany := func(event string, sref *engine.ShardedResult) *Failure {
		progs := make([]*lang.Program, len(liveS))
		for q, sid := range liveS {
			progs[q] = progOf[sid]
		}
		many, err := engine.WhereMany(d, progs, engine.Options{Workers: 1, BatchSize: 1})
		if err != nil {
			return failf(CheckErr, b, "WhereMany after %s: %v", event, err)
		}
		if msg := diffShardVsMany("after "+event, many, sref, liveS); msg != "" {
			f := failf(CheckShard, b, "%s", msg)
			f.Events = events
			return f
		}
		return nil
	}

	for _, p := range udfs {
		if f := add(p); f != nil {
			return f
		}
	}
	if f := flush("initial adds"); f != nil {
		return f
	}
	sref, f := pass("initial adds")
	if f != nil {
		return f
	}
	if f := vsMany("initial adds", sref); f != nil {
		return f
	}
	if f := matrix("initial adds", sref); f != nil {
		return f
	}

	for e := 0; e < events; e++ {
		var event string
		if len(liveS) == 0 || rng.Intn(2) == 0 {
			if f := add(udfs[rng.Intn(len(udfs))]); f != nil {
				return f
			}
			event = fmt.Sprintf("event %d (add)", e)
		} else {
			i := rng.Intn(len(liveS))
			sid, gid := liveS[i], liveG[i]
			liveS[i] = liveS[len(liveS)-1]
			liveS = liveS[:len(liveS)-1]
			liveG[i] = liveG[len(liveG)-1]
			liveG = liveG[:len(liveG)-1]
			if err := sh.Remove(sid); err != nil {
				return failf(CheckErr, b, "shard.Remove(%d): %v", sid, err)
			}
			if err := greg.Remove(gid); err != nil {
				return failf(CheckErr, b, "registry.Remove(%d): %v", gid, err)
			}
			event = fmt.Sprintf("event %d (remove)", e)
		}
		// Dirty pass first: delta snapshots (pending verbatim queries,
		// suppressed removals) must already agree across topologies.
		if _, f := pass(event + ", dirty"); f != nil {
			return f
		}
		if f := flush(event); f != nil {
			return f
		}
		sref, f := pass(event + ", flushed")
		if f != nil {
			return f
		}
		if f := vsMany(event+", flushed", sref); f != nil {
			return f
		}
		// The full matrix once more on the final state; mid-churn events
		// settle for the record-at-a-time diffs above.
		if e == events-1 {
			if f := matrix(event, sref); f != nil {
				return f
			}
		}
	}
	return nil
}
