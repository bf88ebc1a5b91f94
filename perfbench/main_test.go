package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"consolidation/internal/engine"
)

// smoke is the tiny configuration the tests run: a few hundred records,
// a handful of queries, under a second of measurement per run.
func smoke(t *testing.T, workload string, seed int64, trace bool) config {
	t.Helper()
	return config{
		workload: workload, seed: seed, seconds: 0.3, trace: trace, scale: 0.02,
		traceOut: filepath.Join(t.TempDir(), "trace.json"), workers: 2,
	}
}

type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// runOnce executes one smoke run and returns its human lines and result.
func runOnce(t *testing.T, cfg config) (string, result) {
	t.Helper()
	var out bytes.Buffer
	if err := execute(cfg, &out); err != nil {
		t.Fatalf("%s seed %d trace %v: %v", cfg.workload, cfg.seed, cfg.trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	f := loadBenchmarkJSON(t)
	for gate, list := range map[string][]metricDef{"end_to_end": f.EndToEnd, "per_layer": f.PerLayer} {
		want := gated(gate)
		if len(list) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, catalogue %d", gate, len(list), len(want))
		}
		for i, m := range list {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", gate, i, m, w)
			}
		}
	}
}

// TestEveryMetricPrinted runs every workload untraced and traced and checks
// that the result line holds exactly the BENCHMARK.json metrics of its mode
// with their units, that report metrics of the workload are printed with
// theirs, and that no operation failed.
func TestEveryMetricPrinted(t *testing.T) {
	f := loadBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			human, res := runOnce(t, smoke(t, w, 1, trace))
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %v: correct %v, %d of %d failed\n%s", w, trace, res.Correct, res.Failed, res.Attempted, human)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m.Name, got.Value)
				}
			}
			if !strings.Contains(human, "error_rate") {
				t.Errorf("%s trace %v: error_rate not printed", w, trace)
			}
			for _, m := range catalogue {
				if m.Gate != "report" || !appliesTo(m, w) || trace != strings.Contains(m.Name, ".") {
					continue
				}
				if !strings.Contains(human, " "+m.Name+" ") || !strings.Contains(human, " "+m.Unit+" ") {
					t.Errorf("%s trace %v: report metric %s (%s) not printed", w, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

func appliesTo(m metricDef, w string) bool {
	if len(m.Workloads) == 0 {
		return true
	}
	for _, x := range m.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

// digest hashes fn over every record of a dataset.
func digest(t *testing.T, ds engine.RecordLibrary, fn string) uint64 {
	t.Helper()
	h := fnv.New64a()
	for i := 0; i < ds.NumRecords(); i++ {
		ds.SetRecord(i)
		v, err := ds.Call(fn, []int64{int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	return h.Sum64()
}

// TestSeedsChangeInputsNotMetrics checks that two seeds generate different
// records but report the same set of metrics.
func TestSeedsChangeInputsNotMetrics(t *testing.T) {
	inputs := func(seed int64) []uint64 {
		cfg := smoke(t, wTweets, seed, false)
		tw, err := setupTweets(cfg, false, func(time.Duration) {})
		if err != nil {
			t.Fatal(err)
		}
		tw.reg.Close()
		nw, err := setupNews(cfg, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		nw.reg.Close()
		ag, err := setupAgg(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return []uint64{digest(t, tw.ds, "followerCount"), digest(t, nw.ds, "wordCount"), digest(t, ag.ds, "tempObs")}
	}
	a, b := inputs(1), inputs(2)
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("dataset %d is identical at seeds 1 and 2", i)
		}
	}
	for _, w := range []string{wTweets, wAgg} {
		_, r1 := runOnce(t, smoke(t, w, 1, false))
		_, r2 := runOnce(t, smoke(t, w, 2, false))
		for name := range r1.Metrics {
			if _, ok := r2.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing at seed 2", w, name)
			}
		}
		if len(r1.Metrics) != len(r2.Metrics) {
			t.Errorf("%s: %d metrics at seed 1, %d at seed 2", w, len(r1.Metrics), len(r2.Metrics))
		}
	}
}

// TestTraceSelfTimesNonNegative reads back a traced run's span file.
func TestTraceSelfTimesNonNegative(t *testing.T) {
	for _, w := range workloadNames {
		cfg := smoke(t, w, 3, true)
		runOnce(t, cfg)
		b, err := os.ReadFile(cfg.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []struct {
				Name   string `json:"name"`
				Parent int    `json:"parent"`
				Self   int64  `json:"self_ns"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, s := range doc.Spans {
			names[s.Name] = true
			if s.Self < 0 {
				t.Errorf("%s: span %s has self time %d", w, s.Name, s.Self)
			}
		}
		for _, want := range []string{"replay.batch", "data.decode", "lang.vm"} {
			if !names[want] {
				t.Errorf("%s: no %s span", w, want)
			}
		}
	}
}
