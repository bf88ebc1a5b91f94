package main

import (
	"encoding/json"
	"io"
)

type workloadDef struct {
	Name   string         `json:"name"`
	Why    string         `json:"why"`
	Params map[string]any `json:"params"`
}

var workloads = []workloadDef{
	{Name: wTweets, Why: "Figure 9's 50 twitter Q2 UDFs ungated: decode, merged VM and sentimentScore dominate; SMT and guard changes should not move rec_per_s",
		Params: map[string]any{"domain": "twitter", "family": "Q2", "queries": tweetsQueries, "records": 31152,
			"standing_set": "one cap-driven ShardedRegistry cluster"}},
	{Name: wGated, Why: "the same tweets, 20 Q2 UDFs gated by queries.Selective on followerCount at 1%: the guard over the lite decode rejects ~99% of records",
		Params: map[string]any{"domain": "twitter", "family": "Q2", "queries": gatedQueries, "records": 31152,
			"selectivity": gatedShare, "gate": "followerCount"}},
	{Name: wNews, Why: "live subscriptions: Add/Remove, a pass serving the pending query verbatim, and the lazy Rebuild; solver, registry and shard changes show",
		Params: map[string]any{"domain": "news", "family": "Mix", "seeded_queries": newsQueries,
			"records": 571, "corpus_scale": newsScale, "pool": newsPool, "plans": newsPlans, "clustering": "shard defaults", "reference_checkpoint_every": checkEvery}},
	{Name: wAgg, Why: "6 keyed 12-hour windowed aggregations over 500 stations: the only workload running MergeAggs and AggregateConsolidated",
		Params: map[string]any{"domain": "weather stream", "aggregations": aggCount, "window": aggWindow, "keyed": "cityOf",
			"stations": aggStations, "hours": aggHours, "records": aggStations * aggHours}},
}

// writeSpec prints the catalogue: metrics with unit, direction, layer,
// kind, gate and the end-to-end metric each layer metric should move;
// workloads with reasons and parameters; and the load shape.
func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"load": map[string]any{
			"loop":       "closed: one client issues the next operation when the previous one returns",
			"gomaxprocs": "Go default (the CPUs the process may use)",
			"workers":    "engine Workers = GOMAXPROCS; traced layer breakdowns run at one worker",
			"timed":      "operations only; set-up and reference checks are outside every timed interval",
		},
		"workloads": workloads,
		"metrics":   catalogue,
	})
}
