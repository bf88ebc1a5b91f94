package engine

import (
	"time"

	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// SnapshotSource serves generation-numbered registry snapshots; it is the
// seam between the engine and internal/registry. *registry.Registry
// implements it, and tests wrap it to observe exactly which generation
// admitted each record.
type SnapshotSource interface {
	Snapshot() *registry.Snapshot
}

// ShardSnapshotSource serves atomically published cross-cluster snapshots;
// *shard.ShardedRegistry implements it, and tests wrap it to observe which
// generation admitted each batch.
type ShardSnapshotSource interface {
	Snapshot() *shard.Snapshot
}

// keyedResult is the id-keyed outcome of a live pass. Verdicts are keyed
// by query id — slot positions are unstable across generations — and Gens
// records the generation that admitted each record, so callers can audit
// exactly which query set each record was evaluated against. LatencySum
// accumulates, per query, the abstract cost at which its notification was
// decided: its cluster's guard share plus the merged program's
// notification cost, or, for a guard-rejected record, the guard's own
// notification cost, exactly as WhereConsolidated stamps rejections.
type keyedResult[ID ~uint64] struct {
	Verdicts   []map[ID]bool
	Gens       []uint64
	LatencySum map[ID]int64
	Metrics
}

// RegistryResult is the outcome of streaming a dataset through a live
// registry.
type RegistryResult struct {
	keyedResult[registry.QueryID]
}

// ShardedResult is the outcome of streaming a dataset through a sharded
// registry; its ids are the stable shard-level QueryIDs.
type ShardedResult struct {
	keyedResult[shard.QueryID]
}

// WhereRegistry streams every record through the registry's current
// consolidated program, hot-swapping to a new generation only between
// batches: the snapshot is loaded once per batch, so each batch sees
// exactly one query set — no drops, no double notifications, even while
// Add/Remove churn and background re-consolidation are in flight. Queries
// still pending consolidation run verbatim alongside the stale merged
// program; queries removed since it was built are suppressed by id.
//
// The pass always runs one worker, whatever opts.Workers says: a
// partitioned pass has no single admission order, and the whole point of
// the operator is that "the query set when this record was admitted" is
// well-defined.
func WhereRegistry(data RecordLibrary, src SnapshotSource, opts Options) (*RegistryResult, error) {
	opts.Workers = 1
	out := &RegistryResult{}
	if err := out.run(data, opts, registrySource(src)); err != nil {
		return nil, err
	}
	return out, nil
}

// WhereSharded streams every record through a sharded registry with
// two-level routing: per batch, stage A runs every cluster's admission
// guard over the lite-decode span, and stage B pays the full record decode
// and runs only the admitted clusters' merged-program VMs (pending queries
// run verbatim regardless, as in WhereRegistry). The snapshot is loaded
// once per batch, so each batch sees one atomic cross-cluster query set.
//
// Unlike WhereRegistry, the pass is multi-worker: verdicts, costs, and
// latency stamps are byte-identical at every Workers × BatchSize
// combination against a quiescent registry.
func WhereSharded(data RecordLibrary, src ShardSnapshotSource, opts Options) (*ShardedResult, error) {
	out := &ShardedResult{}
	if err := out.run(data, opts, shardSource(src)); err != nil {
		return nil, err
	}
	return out, nil
}

// registrySource serves a registry's snapshots as one-cluster generations.
func registrySource(src SnapshotSource) genSource {
	return func(cur uint64, fresh bool) (uint64, []clusterSnap, bool) {
		s := src.Snapshot()
		if !fresh && s.Gen == cur {
			return cur, nil, false
		}
		return s.Gen, []clusterSnap{{snap: s}}, true
	}
}

// shardSource serves a sharded registry's cross-cluster snapshots.
func shardSource(src ShardSnapshotSource) genSource {
	return func(cur uint64, fresh bool) (uint64, []clusterSnap, bool) {
		s := src.Snapshot()
		if !fresh && s.Gen == cur {
			return cur, nil, false
		}
		cls := make([]clusterSnap, len(s.Clusters))
		for i, c := range s.Clusters {
			cls[i] = clusterSnap{snap: c.Snap, ids: c.IDs}
		}
		return s.Gen, cls, true
	}
}

// run drives the snapshot pass over src and publishes each batch's
// verdict maps; worker latency banks fold into LatencySum at worker exit.
func (r *keyedResult[ID]) run(data RecordLibrary, opts Options, src genSource) error {
	n := data.NumRecords()
	r.Verdicts = make([]map[ID]bool, n)
	r.Gens = make([]uint64, n)
	r.LatencySum = map[ID]int64{}
	start := time.Now()
	err := runPass(data, opts, &r.Metrics, func(lib RecordLibrary) (batchFn, func()) {
		p := newSnapPass(lib, opts, src)
		eval := func(lo, hi int, m *Metrics) error {
			if err := p.batch(lo, hi, m); err != nil {
				return err
			}
			r.publish(p, lo, hi, m)
			return nil
		}
		return eval, func() {
			for gid, v := range p.latency() {
				r.LatencySum[ID(gid)] += v
			}
		}
	})
	r.TotalTime = time.Since(start)
	return err
}

// publish materialises the batch's per-record verdict maps from every
// cluster's flat scratch rows and stamps the generation. Removed queries
// are suppressed here, so the evaluation stages stay map-free.
func (r *keyedResult[ID]) publish(p *snapPass, lo, hi int, m *Metrics) {
	size := 0
	for ci := range p.cls {
		size += len(p.cls[ci].noteIdx) + len(p.cls[ci].pendRns)
	}
	for i := lo; i < hi; i++ {
		k := i - lo
		verdicts := make(map[ID]bool, size)
		for ci := range p.cls {
			c := &p.cls[ci]
			ns := len(c.noteIdx)
			row := c.slotVals[k*ns : (k+1)*ns]
			for slot, gid := range c.gids {
				if c.removed[slot] {
					m.SuppressedNotifies++
					continue
				}
				verdicts[ID(gid)] = row[slot]
			}
			np := len(c.pendRns)
			for j, gid := range c.pendGids {
				verdicts[ID(gid)] = c.pendVals[k*np+j]
			}
		}
		r.Verdicts[i] = verdicts
		r.Gens[i] = p.gen
	}
}
