package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/prefilter"
	"consolidation/internal/registry"
	"consolidation/internal/shard"
)

// sameKeyed asserts every deterministic field of a registry or sharded
// pass matches the reference: verdict maps, generation stamps, costs, guard
// shares, admission counts, pending/suppression counts, and per-query
// latency stamps. Batches/Swaps/wall times depend on dispatch shape and are
// excluded.
func sameKeyed[ID ~uint64](t *testing.T, label string, ref, got *keyedResult[ID]) {
	t.Helper()
	if len(ref.Verdicts) != len(got.Verdicts) {
		t.Fatalf("%s: %d verdict rows, reference %d", label, len(got.Verdicts), len(ref.Verdicts))
	}
	for i := range ref.Verdicts {
		if len(ref.Verdicts[i]) != len(got.Verdicts[i]) {
			t.Fatalf("%s: record %d has %d verdicts, reference %d", label, i, len(got.Verdicts[i]), len(ref.Verdicts[i]))
		}
		for id, v := range ref.Verdicts[i] {
			gv, ok := got.Verdicts[i][id]
			if !ok || gv != v {
				t.Fatalf("%s: record %d query %d = %v/%v, reference %v", label, i, id, gv, ok, v)
			}
		}
		if ref.Gens[i] != got.Gens[i] {
			t.Fatalf("%s: record %d gen %d, reference %d", label, i, got.Gens[i], ref.Gens[i])
		}
	}
	if ref.UDFCost != got.UDFCost || ref.GuardCost != got.GuardCost {
		t.Fatalf("%s: cost %d/%d, reference %d/%d", label, got.UDFCost, got.GuardCost, ref.UDFCost, ref.GuardCost)
	}
	if ref.Admitted != got.Admitted || ref.Rejected != got.Rejected {
		t.Fatalf("%s: admitted/rejected %d/%d, reference %d/%d",
			label, got.Admitted, got.Rejected, ref.Admitted, ref.Rejected)
	}
	if ref.PendingRuns != got.PendingRuns || ref.SuppressedNotifies != got.SuppressedNotifies {
		t.Fatalf("%s: pending/suppressed %d/%d, reference %d/%d",
			label, got.PendingRuns, got.SuppressedNotifies, ref.PendingRuns, ref.SuppressedNotifies)
	}
	if len(ref.LatencySum) != len(got.LatencySum) {
		t.Fatalf("%s: %d latency entries, reference %d", label, len(got.LatencySum), len(ref.LatencySum))
	}
	for id, v := range ref.LatencySum {
		if got.LatencySum[id] != v {
			t.Fatalf("%s: latency stamp sum of query %d is %d, reference %d", label, id, got.LatencySum[id], v)
		}
	}
}

// shardedFixture builds a sharded registry and a global registry over the
// same gated UDFs (guard synthesis enabled on both), forcing the sharded
// side into several clusters, and returns the id correspondence.
func shardedFixture(t *testing.T, d *liteToy, nUDFs int) (*shard.ShardedRegistry, *registry.Registry, map[registry.QueryID]shard.QueryID, []shard.QueryID, []registry.QueryID) {
	t.Helper()
	pf := &prefilter.Options{Coster: d, MaxCallCost: d.LiteCostBound()}
	sh, err := shard.New(shard.Options{
		Registry:       registry.Options{Prefilter: pf},
		MaxClusterSize: 2,
		MinSimilarity:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	greg, err := registry.New(registry.Options{Prefilter: pf})
	if err != nil {
		t.Fatal(err)
	}
	toShard := map[registry.QueryID]shard.QueryID{}
	var sids []shard.QueryID
	var gids []registry.QueryID
	for _, p := range gatedToyUDFs(nUDFs, 60) {
		sid, err := sh.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		gid, err := greg.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		toShard[gid] = sid
		sids = append(sids, sid)
		gids = append(gids, gid)
	}
	return sh, greg, toShard, sids, gids
}

// diffVsGlobal asserts per-record verdict parity between a sharded pass
// and the single global registry, under the id correspondence.
func diffVsGlobal(t *testing.T, label string, gref *RegistryResult, sref *ShardedResult, toShard map[registry.QueryID]shard.QueryID) {
	t.Helper()
	for i := range gref.Verdicts {
		if len(gref.Verdicts[i]) != len(sref.Verdicts[i]) {
			t.Fatalf("%s: record %d has %d sharded verdicts, global %d",
				label, i, len(sref.Verdicts[i]), len(gref.Verdicts[i]))
		}
		for gid, v := range gref.Verdicts[i] {
			sv, ok := sref.Verdicts[i][toShard[gid]]
			if !ok || sv != v {
				t.Fatalf("%s: record %d query %d (shard %d) = %v/%v, global %v",
					label, i, gid, toShard[gid], sv, ok, v)
			}
		}
	}
}

// TestWhereShardedParityMatrix is the operator's correctness criterion:
// against a quiescent sharded registry with multiple guarded clusters,
// every Workers × BatchSize combination reproduces the W=1/B=1 sharded
// reference byte-identically, and per-query verdicts match a single global
// registry over the same queries — clean, and again under pending/removed
// delta state.
func TestWhereShardedParityMatrix(t *testing.T) {
	const n = 271 // ragged against every batch size below
	d := newLiteToy(n)
	sh, greg, toShard, sids, gids := shardedFixture(t, d, 6)
	defer sh.Close()
	defer greg.Close()

	snap, err := sh.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Clusters) < 3 {
		t.Fatalf("expected >=3 clusters from splitting, got %d", len(snap.Clusters))
	}
	for _, cs := range snap.Clusters {
		if cs.Snap.Guard == nil || cs.Snap.Guard.Trivial {
			t.Fatalf("cluster %d has no non-trivial guard; the two-level stage would be skipped", cs.ID)
		}
	}
	if _, err := greg.Flush(); err != nil {
		t.Fatal(err)
	}

	phase := func(label string) {
		ref, err := WhereSharded(d, sh, Options{Workers: 1, BatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		gref, err := WhereRegistry(d, greg, Options{Workers: 1, BatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		diffVsGlobal(t, label+"/vs-global", gref, ref, toShard)
		if ref.Rejected == 0 || ref.Admitted == 0 {
			t.Fatalf("%s: degenerate admission split %d/%d", label, ref.Admitted, ref.Rejected)
		}
		for _, bs := range []int{1, 7, 64, n, 512} {
			for _, w := range []int{1, 2, 4} {
				got, err := WhereSharded(d, sh, Options{Workers: w, BatchSize: bs})
				if err != nil {
					t.Fatal(err)
				}
				sameShardedLabel := fmt.Sprintf("%s/workers=%d/batch=%d", label, w, bs)
				sameKeyed(t, sameShardedLabel, &ref.keyedResult, &got.keyedResult)
				wantBatches := (n + bs - 1) / bs
				if bs > n {
					wantBatches = 1
				}
				if got.Batches != wantBatches {
					t.Fatalf("%s: %d batches, want %d", sameShardedLabel, got.Batches, wantBatches)
				}
			}
		}
	}

	phase("clean")

	// Delta state: one pending query (rebuilds are manual, so it stays
	// pending) and one removal suppressed against the stale merged program,
	// mirrored on the global registry.
	pend := `func pend(r) { notify 3 (val(r) > 10); }`
	spend, err := sh.Add(lang.MustParse(pend))
	if err != nil {
		t.Fatal(err)
	}
	gpend, err := greg.Add(lang.MustParse(pend))
	if err != nil {
		t.Fatal(err)
	}
	toShard[gpend] = spend
	if err := sh.Remove(sids[0]); err != nil {
		t.Fatal(err)
	}
	if err := greg.Remove(gids[0]); err != nil {
		t.Fatal(err)
	}
	if sh.Snapshot().Clean() {
		t.Fatal("delta phase snapshot unexpectedly clean")
	}
	phase("delta")
}

// TestWhereShardedErrorJoinsWorkers pins the error path: a query whose
// library call cannot resolve fails the pass, and no worker goroutine may
// outlive it.
func TestWhereShardedErrorJoinsWorkers(t *testing.T) {
	const n = 400
	baseline := runtime.NumGoroutine()
	d := newLiteToy(n)
	sh, greg, _, _, _ := shardedFixture(t, d, 4)
	defer sh.Close()
	greg.Close()
	if _, err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	// The pending query calls a function the dataset does not provide; the
	// runner surfaces it at evaluation time on every record.
	if _, err := sh.Add(lang.MustParse(`func boom(r) { notify 9 (missing(r) > 0); }`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := WhereSharded(d, sh, Options{Workers: 4, BatchSize: 16}); err == nil {
			t.Fatal("expected the unresolved call to fail the pass")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after failed sharded passes: %d at baseline, %d now",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWhereShardedConcurrentPassesShareDataset pins the clone policy: each
// pass worker drives its own clone of the dataset and no pass moves the
// caller's, so sharded and registry passes running concurrently over one
// dataset do not race and reproduce their sequential results exactly.
func TestWhereShardedConcurrentPassesShareDataset(t *testing.T) {
	const n = 300
	d := newLiteToy(n)
	sh, greg, _, _, _ := shardedFixture(t, d, 4)
	defer sh.Close()
	defer greg.Close()
	if _, err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := greg.Flush(); err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 2, BatchSize: 16}
	sref, err := WhereSharded(d, sh, opts)
	if err != nil {
		t.Fatal(err)
	}
	gref, err := WhereRegistry(d, greg, opts)
	if err != nil {
		t.Fatal(err)
	}
	const passes = 3
	sres := make([]*ShardedResult, passes)
	gres := make([]*RegistryResult, passes)
	errs := make([]error, 2*passes)
	var wg sync.WaitGroup
	for i := 0; i < passes; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			sres[i], errs[2*i] = WhereSharded(d, sh, opts)
		}()
		go func() {
			defer wg.Done()
			gres[i], errs[2*i+1] = WhereRegistry(d, greg, opts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < passes; i++ {
		sameKeyed(t, fmt.Sprintf("sharded pass %d", i), &sref.keyedResult, &sres[i].keyedResult)
		sameKeyed(t, fmt.Sprintf("registry pass %d", i), &gref.keyedResult, &gres[i].keyedResult)
	}
}
