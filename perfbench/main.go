// Command perfbench is the repository's end-to-end benchmark. One process
// runs one named workload in a closed loop — one client, the next
// operation issued when the previous one returns — for a fixed number of
// seconds, checks every output against a reference operator outside the
// timed region, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run instead times the calls into each layer's public API and reports the
// per-layer ones, and writes its spans to --trace-out.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload tweets-q2 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --spec
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies input sizes (records and query counts); runs from
	// the command line use 1, the smoke tests far smaller.
	scale    float64
	traceOut string
	// workers is the engine worker count: GOMAXPROCS, which never exceeds
	// the CPUs the process may use.
	workers int
}

func parseFlags(args []string) (config, bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{scale: 1}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	spec := fs.Bool("spec", false, "print the metric and workload catalogue as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	if *spec {
		return cfg, true, nil
	}
	if trace != 0 && trace != 1 {
		return cfg, false, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if !knownWorkload(cfg.workload) {
		return cfg, false, fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, false, fmt.Errorf("--seconds must be positive")
	}
	if cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/perfbench/trace-%s-%d.json", cfg.workload, cfg.seed)
	}
	cfg.workers = runtime.GOMAXPROCS(0)
	return cfg, false, nil
}

func knownWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

func main() {
	cfg, spec, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if spec {
		if err := writeSpec(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	out := bufio.NewWriter(os.Stdout)
	if err := execute(cfg, out); err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run accumulates one workload run: timing samples, deterministic values,
// operation counts, and the trace.
type run struct {
	cfg      config
	deadline time.Time

	samples map[string][]float64
	// det holds the first value of each deterministic metric; a later
	// different value fails the operation that produced it.
	det       map[string]float64
	attempted int
	failed    int
	failures  []string

	// values are the reported metrics; counts the samples behind each.
	values map[string]float64
	counts map[string]int

	rec recorder
	lt  *libTimes
}

func newRun(cfg config) *run {
	r := &run{
		cfg:     cfg,
		samples: map[string][]float64{},
		det:     map[string]float64{},
		values:  map[string]float64{},
		counts:  map[string]int{},
	}
	if cfg.trace {
		r.lt = newLibTimes()
	}
	return r
}

// startClock begins the measured period; set-up before it is not counted
// against --seconds.
func (r *run) startClock() {
	r.deadline = time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
}

// Set-up repeats: at least minSetups, then more while under setupBudget,
// so cheap set-ups still yield a steady median.
const (
	minSetups   = 3
	maxSetups   = 40
	setupBudget = 1500 * time.Millisecond
)

// setups runs setup repeatedly, timing each run into setup_s; the inputs
// of the last one are the ones the run measures.
func (r *run) setups(setup func(i int) error) error {
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < setupBudget); i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		r.add("setup_s", time.Since(t0).Seconds())
	}
	return nil
}

func (r *run) left() time.Duration { return time.Until(r.deadline) }

func (r *run) add(key string, v float64) { r.samples[key] = append(r.samples[key], v) }

// op records the outcome of one attempted operation.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
		return false
	}
	return true
}

// same checks a deterministic value against its first occurrence.
func (r *run) same(key string, v float64) error {
	if old, ok := r.det[key]; ok && old != v {
		return fmt.Errorf("deterministic %s drifted: %v then %v", key, old, v)
	}
	r.det[key] = v
	return nil
}

// set reports a metric computed from n samples.
func (r *run) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

func (r *run) setMedian(name, key string) { r.set(name, median(r.samples[key]), len(r.samples[key])) }

func (r *run) setPct(name, key string, q float64) {
	r.set(name, pct(r.samples[key], q), len(r.samples[key]))
}

// setDet reports a deterministic metric.
func (r *run) setDet(name string) { r.set(name, r.det[name], 1) }

// setLayerMedians reports every traced sample key under its own name.
func (r *run) setLayerMedians() {
	for k := range r.samples {
		if _, ok := lookup(k); ok || strings.HasPrefix(k, "data.call") {
			r.setMedian(k, k)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func execute(cfg config, w io.Writer) error {
	r := newRun(cfg)
	var err error
	switch cfg.workload {
	case wTweets:
		err = runTweets(r, false)
	case wGated:
		err = runTweets(r, true)
	case wNews:
		err = runNews(r)
	case wAgg:
		err = runAgg(r)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := r.rec.write(cfg.traceOut); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		for i, v := range r.rec.selfTimes() {
			if v < 0 {
				return fmt.Errorf("span %q has negative self time %d ns", r.rec.spans[i].Name, v)
			}
		}
	} else {
		r.set("peak_rss_mb", peakRSSMB(), 1)
	}
	r.set("error_rate", float64(r.failed)/float64(r.attempted), r.attempted)
	return r.report(w)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric the run produced, then the JSON result line
// holding exactly the gated metrics of the run's mode.
func (r *run) report(w io.Writer) error {
	gate := "end_to_end"
	if r.cfg.trace {
		gate = "per_layer"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  gomaxprocs %d  nproc %d  workers %d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), r.cfg.workers)
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit := "count"
		if m, ok := lookup(n); ok {
			unit = m.Unit
		} else if strings.HasPrefix(n, "data.call_ns_per_rec.") {
			unit = "ns"
		}
		note := ""
		if strings.HasSuffix(n, "_p90") && r.counts[n] < 100 {
			note = "  (fewer than 100 samples: fewer than 10 beyond p90)"
		}
		fmt.Fprintf(w, "  %-34s %16s %-8s n=%d%s\n", n, strconv.FormatFloat(r.values[n], 'g', 8, 64), unit, r.counts[n], note)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  failure:", f)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range gated(gate) {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			fmt.Fprintf(w, "  missing metric: %s\n", m.Name)
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
