package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"consolidation/internal/engine"
	"consolidation/internal/lang"
)

// The traced run measures layers from the outside: every span below is
// opened and closed by the benchmark around a call into a layer's public
// API (engine operators, consolidate, prefilter, lang runners, the data
// library). Nothing inside the program is instrumented.

// clockBase anchors span timestamps; time.Since on a monotonic base reads
// only the monotonic clock, the cheapest timer the standard library has.
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// span is one recorded interval. Spans of one operation share Op. A span
// either brackets one call (Dur == End-Start) or aggregates a layer's busy
// time inside its parent (Count intervals summing to Dur, all within
// [Start, End]); per-batch aggregates keep a 31,152-record pass down to a
// few hundred spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Count  int64  `json:"count,omitempty"`
}

// recorder keeps spans in memory until the run ends. Span ids are 1-based
// indices into spans; parent 0 is the root.
type recorder struct {
	spans  []span
	nextOp int
}

func (r *recorder) newOp() int {
	r.nextOp++
	return r.nextOp
}

// begin opens a call span and returns its id.
func (r *recorder) begin(op, parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: nowNs()})
	return len(r.spans)
}

// end closes a call span.
func (r *recorder) end(id int) {
	s := &r.spans[id-1]
	s.End = nowNs()
	s.Dur = s.End - s.Start
}

// aggregate records a child span holding a layer's summed busy time inside
// parent; empty aggregates are skipped.
func (r *recorder) aggregate(parent int, name string, dur, count int64) int {
	if count == 0 {
		return 0
	}
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: p.Op, Name: name,
		Start: p.Start, End: p.End, Dur: dur, Count: count})
	return len(r.spans)
}

// selfTimes returns every span's self time: its duration minus the time
// its children cover. Children of one parent never overlap (each layer
// runs to completion before the next starts on the single traced worker),
// so the sum of their durations is the covered time.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.Dur
		if s.Parent > 0 {
			self[s.Parent-1] -= s.Dur
		}
	}
	return self
}

// write stores the spans and their self times as one JSON document.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := r.selfTimes()
	rows := make([]row, len(r.spans))
	for i, s := range r.spans {
		rows[i] = row{s, self[i]}
	}
	b, err := json.Marshal(map[string]any{"spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Library calls are too short and too many to bracket each with a timer
// pair (a read costs tens of nanoseconds), so calls are sampled: every
// call is counted, and every sampleEvery-th call of a function is timed
// over callRepeat back-to-back invocations — library functions are
// deterministic and side-effect free — which divides the timer's share of
// the sample by callRepeat. The sampler itself costs time, so stage times
// are taken from a replay that runs with sampling off; a second replay
// with sampling on supplies the call counts and per-call estimates.
const (
	sampleEvery = 16
	callRepeat  = 16
)

// callTotals accumulates, per function index, calls made, timed samples,
// and the raw time of those samples.
type callTotals struct {
	n, samples, ns []int64
}

func (c *callTotals) grow(nf int) {
	for len(c.n) < nf {
		c.n, c.samples, c.ns = append(c.n, 0), append(c.samples, 0), append(c.ns, 0)
	}
}

func (c *callTotals) reset(nf int) {
	c.grow(nf)
	clear(c.n)
	clear(c.samples)
	clear(c.ns)
}

// call invokes f through the sampler.
func (c *callTotals) call(k int, f func([]int64) (int64, error), args []int64) (int64, error) {
	c.grow(k + 1)
	c.n[k]++
	if c.n[k]%sampleEvery != 1 {
		return f(args)
	}
	t0 := nowNs()
	v, err := f(args)
	for j := 1; j < callRepeat; j++ {
		f(args)
	}
	c.ns[k] += nowNs() - t0
	c.samples[k]++
	return v, err
}

// libTimes is the shared state of a traced library and its clones. Traced
// passes run on one worker, so it is never touched concurrently.
type libTimes struct {
	fnIdx map[string]int
	names []string
	// sample routes library calls through the sampler; when false they go
	// straight to the wrapped dataset, and only decodes are timed. It is
	// read when a runner resolves its call sites, so it is set before the
	// runners of a pass are built.
	sample bool

	decodeNs, decodeN int64
	// liteN counts span calls.
	liteNs, liteN int64
	// sink receives call time; the replay points it at the stage running.
	sink *callTotals
	all  callTotals
}

func newLibTimes() *libTimes {
	t := &libTimes{fnIdx: map[string]int{}}
	t.sink = &t.all
	return t
}

func (t *libTimes) fn(name string) int {
	k, ok := t.fnIdx[name]
	if !ok {
		k = len(t.names)
		t.fnIdx[name] = k
		t.names = append(t.names, name)
	}
	return k
}

// clearAll zeroes the totals and sets the sampling mode.
func (t *libTimes) clearAll(sample bool) {
	t.decodeNs, t.decodeN, t.liteNs, t.liteN = 0, 0, 0, 0
	t.all.reset(len(t.names))
	t.sink = &t.all
	t.sample = sample
}

// tracedLib wraps a dataset, timing record decodes and, in sampling mode,
// sampling library calls.
// It implements lang.DirectCaller whatever the wrapped dataset does: a
// dataset with direct handles is resolved through them (the runner's fast
// call path stays in use), and one without falls back to its Call, which
// the wrapper's Call times the same way.
type tracedLib struct {
	inner engine.RecordLibrary
	t     *libTimes
}

// tracedSpanLib adds the lite-decode entry points for datasets that have
// them, so the engine keeps its admission-guard stage on the traced pass.
type tracedSpanLib struct {
	*tracedLib
	lite engine.LiteSpanLibrary
}

// wrap returns a traced view of ds with the same engine capabilities.
func wrap(ds engine.RecordLibrary, t *libTimes) (engine.RecordLibrary, error) {
	tl := &tracedLib{inner: ds, t: t}
	if sp, ok := ds.(engine.LiteSpanLibrary); ok {
		return &tracedSpanLib{tracedLib: tl, lite: sp}, nil
	}
	if _, ok := ds.(engine.LiteRecordLibrary); ok {
		return nil, fmt.Errorf("perfbench: lite dataset %T without span decode is not traceable", ds)
	}
	return tl, nil
}

func (l *tracedLib) NumRecords() int { return l.inner.NumRecords() }

func (l *tracedLib) FuncCost(name string) (int64, bool) { return l.inner.FuncCost(name) }

func (l *tracedLib) SetRecord(i int) {
	t0 := nowNs()
	l.inner.SetRecord(i)
	l.t.decodeNs += nowNs() - t0
	l.t.decodeN++
}

func (l *tracedLib) Clone() engine.RecordLibrary {
	c, _ := wrap(l.inner.Clone(), l.t)
	return c
}

func (l *tracedLib) Call(name string, args []int64) (int64, error) {
	if !l.t.sample {
		return l.inner.Call(name, args)
	}
	return l.t.sink.call(l.t.fn(name), func(a []int64) (int64, error) { return l.inner.Call(name, a) }, args)
}

// Resolve binds a call site once. A dataset with direct handles is
// resolved through them; for one without, the handle calls its Call by
// name, which is what the runner's own fallback does. With sampling off
// the handle is returned unwrapped.
func (l *tracedLib) Resolve(name string) (func(args []int64) (int64, error), bool) {
	var f func(args []int64) (int64, error)
	if dc, ok := l.inner.(lang.DirectCaller); ok {
		f, _ = dc.Resolve(name)
	}
	if f == nil {
		inner := l.inner
		f = func(args []int64) (int64, error) { return inner.Call(name, args) }
	}
	if !l.t.sample {
		return f, true
	}
	k, t := l.t.fn(name), l.t
	return func(args []int64) (int64, error) { return t.sink.call(k, f, args) }, true
}

func (l *tracedSpanLib) Clone() engine.RecordLibrary {
	c, _ := wrap(l.inner.Clone(), l.t)
	return c
}

// SetRecordLite is a bare index store; timing it per record would cost
// more than the call, so its time is part of the guard stage.
func (l *tracedSpanLib) SetRecordLite(i int) { l.lite.SetRecordLite(i) }

func (l *tracedSpanLib) SetRecordLiteSpan(lo, hi int) {
	t0 := nowNs()
	l.lite.SetRecordLiteSpan(lo, hi)
	l.t.liteNs += nowNs() - t0
	l.t.liteN++
}

func (l *tracedSpanLib) LiteCostBound() int64 { return l.lite.LiteCostBound() }
