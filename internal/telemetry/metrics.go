// Package telemetry is the repository's runtime-measurement core. The
// paper's central claim is about *where iteration time goes* — the update
// thread hides the ΔWx write/accumulate (Fig. 6 T.A1–T.A5) behind minibatch
// compute (T4+T5) while deliberately leaving the Wg read (T1) exposed — so
// the package provides the two instruments needed to see that directly:
//
//   - metrics: atomic counters, gauges and fixed-bucket histograms with a
//     Prometheus text exposition, designed so recording on the SMB/SEASGD
//     hot path performs zero heap allocations (the PR 2 AllocsPerRun guards
//     run with instrumentation enabled);
//   - a span tracer (tracer.go) that records the SEASGD phases into a
//     preallocated ring and exports Chrome trace_event JSON, rendering a
//     training run as the paper's Fig. 6 timeline in chrome://tracing or
//     Perfetto.
//
// All recording methods are nil-receiver safe: a component holding a nil
// *Counter/*Histogram/*Tracer pays one branch and records nothing, so
// instrumentation can be unconditional in the code it measures.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. The zero value is unusable;
// obtain one from Registry.Counter. All methods are safe for concurrent use
// and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative for the value to stay meaningful).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter (test/diagnostic use, not part of the Prometheus
// counter contract).
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is a float64 that can go up and down, stored as IEEE-754 bits in an
// atomic uint64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d with a CAS loop (allocation-free).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: cumulative bucket counts plus sum
// and count, all atomics over storage preallocated at registration. Observe
// is lock-free and allocation-free, which is what lets the SMB accumulate
// path and the SEASGD phase recording stay inside the PR 2 zero-alloc
// budget.
type Histogram struct {
	upper  []float64      // bucket upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(upper)+1; last is the overflow (+Inf) bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are small (≤ ~30) and the slice is hot in
	// cache; a binary search buys nothing at this size.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSeconds records a duration given in nanoseconds as seconds — the
// convenient form for time.Since(...).Nanoseconds() call sites.
func (h *Histogram) ObserveSeconds(ns int64) {
	if h == nil {
		return
	}
	h.Observe(float64(ns) / 1e9)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot returns the cumulative bucket counts aligned with Buckets()
// (the final entry is the +Inf bucket). Counters are read individually, so
// a snapshot taken mid-traffic is per-bucket consistent.
func (h *Histogram) Snapshot() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Buckets returns the upper bounds (excluding +Inf).
func (h *Histogram) Buckets() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.upper))
	copy(out, h.upper)
	return out
}

// ExpBuckets returns n exponentially spaced upper bounds starting at start
// and growing by factor — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n evenly spaced upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// DefLatencyBuckets spans 1µs to ~67s, factor 4 — wide enough for both the
// in-process store (sub-µs accumulates) and a congested TCP transport.
var DefLatencyBuckets = ExpBuckets(1e-6, 4, 14)

// metricKind discriminates exposition formats.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindFloatCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered instrument plus its exposition metadata.
type metric struct {
	base   string // metric family name, no labels
	labels string // `k="v",k2="v2"` or "" (raw, as registered)
	pairs  []labelPair
	parsed bool // labels parsed into pairs; exposition re-escapes values
	help   string
	kind   metricKind

	counter *Counter
	cfn     func() int64
	ffn     func() float64 // kindFloatCounterFunc
	gauge   *Gauge
	gfn     func() float64
	hist    *Histogram
}

// labelPair is one parsed fixed-label pair; the value is held unescaped.
type labelPair struct{ k, v string }

// parseLabels parses `k="v",k2="v2"` with backslash escapes in values. ok is
// false on malformed input, in which case exposition falls back to emitting
// the raw registration string unchanged.
func parseLabels(s string) (pairs []labelPair, ok bool) {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, false
		}
		k := s[:eq]
		rest := s[eq+2:]
		var v strings.Builder
		i, closed := 0, false
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					v.WriteByte('\n')
				case '\\':
					v.WriteByte('\\')
				case '"':
					v.WriteByte('"')
				default:
					v.WriteByte('\\')
					v.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			v.WriteByte(c)
			i++
		}
		if !closed {
			return nil, false
		}
		pairs = append(pairs, labelPair{k: k, v: v.String()})
		s = rest[i:]
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, false
			}
			s = s[1:]
		}
	}
	return pairs, true
}

// labelEscaper escapes label values per the 0.0.4 text format; helpEscaper
// does the same for HELP lines (where `"` needs no escape).
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// renderLabels renders the metric's fixed labels with values escaped,
// appending extra (an already-rendered pair like `le="0.5"`) if non-empty.
func (m *metric) renderLabels(extra string) string {
	fixed := m.labels
	if m.parsed && len(m.pairs) > 0 {
		var b strings.Builder
		for i, p := range m.pairs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(p.k)
			b.WriteString(`="`)
			b.WriteString(labelEscaper.Replace(p.v))
			b.WriteByte('"')
		}
		fixed = b.String()
	}
	if extra == "" {
		return fixed
	}
	if fixed == "" {
		return extra
	}
	return fixed + "," + extra
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. Registration (Counter/Gauge/Histogram) allocates and
// takes a lock — do it at construction time; the returned instrument
// pointers are what the hot path uses.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric          // guarded by mu
	index   map[string]*metric // full name -> metric, guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// splitName separates an optional {label="v"} suffix from the family name.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// register adds m under its full name, panicking on duplicates — metric
// names are program constants, so a clash is a programming error on the
// same footing as a duplicate flag name.
func (r *Registry) register(name, help string, kind metricKind) *metric {
	base, labels := splitName(name)
	m := &metric{base: base, labels: labels, help: help, kind: kind}
	if labels != "" {
		m.pairs, m.parsed = parseLabels(labels)
	} else {
		m.parsed = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.index[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.index[name] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers and returns a counter. The name may carry a fixed label
// set: `ops_total{op="read"}`.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindCounter)
	m.counter = &Counter{}
	return m.counter
}

// CounterFunc registers a counter whose value is read at scrape time —
// the bridge for components that already keep their own atomic counters
// (e.g. the SMB store's traffic stats).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	m := r.register(name, help, kindCounterFunc)
	m.cfn = fn
}

// FloatCounterFunc is CounterFunc for a counter with a fractional value,
// such as CPU seconds, read at scrape time.
func (r *Registry) FloatCounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.register(name, help, kindFloatCounterFunc)
	m.ffn = fn
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindGauge)
	m.gauge = &Gauge{}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.register(name, help, kindGaugeFunc)
	m.gfn = fn
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i, ub := range buckets {
		if math.IsNaN(ub) || math.IsInf(ub, -1) {
			panic(fmt.Sprintf("telemetry: histogram %q has non-finite bucket bound", name))
		}
		if i > 0 && ub <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
	}
	// An explicit trailing +Inf bound is the implicit overflow bucket; strip
	// it so exposition never emits a duplicate le="+Inf" series.
	if n := len(buckets); n > 0 && math.IsInf(buckets[n-1], 1) {
		buckets = buckets[:n-1]
	}
	m := r.register(name, help, kindHistogram)
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	m.hist = &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
	return m.hist
}

// fnum renders a float64 the way Prometheus clients do: +Inf/-Inf/NaN
// spelled exactly as the text format expects, shortest round-trip otherwise.
func fnum(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in text exposition format
// (version 0.0.4). Metrics sharing a family name are grouped under one
// HELP/TYPE header, as the format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	// Group by family, keeping families in first-registration order and
	// series within a family in registration order.
	order := make([]string, 0, len(metrics))
	families := make(map[string][]*metric)
	for _, m := range metrics {
		if _, seen := families[m.base]; !seen {
			order = append(order, m.base)
		}
		families[m.base] = append(families[m.base], m)
	}

	var b strings.Builder
	for _, base := range order {
		fam := families[base]
		typ := "counter"
		switch fam[0].kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", base, helpEscaper.Replace(fam[0].help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", base, typ)
		for _, m := range fam {
			rendered := m.renderLabels("")
			series := base
			if rendered != "" {
				series += "{" + rendered + "}"
			}
			switch m.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s %d\n", series, m.counter.Value())
			case kindCounterFunc:
				fmt.Fprintf(&b, "%s %d\n", series, m.cfn())
			case kindFloatCounterFunc:
				fmt.Fprintf(&b, "%s %s\n", series, fnum(m.ffn()))
			case kindGauge:
				fmt.Fprintf(&b, "%s %s\n", series, fnum(m.gauge.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s %s\n", series, fnum(m.gfn()))
			case kindHistogram:
				cum := m.hist.Snapshot()
				bounds := m.hist.Buckets()
				for i, ub := range bounds {
					fmt.Fprintf(&b, "%s_bucket{%s} %d\n",
						base, m.renderLabels(`le="`+fnum(ub)+`"`), cum[i])
				}
				fmt.Fprintf(&b, "%s_bucket{%s} %d\n",
					base, m.renderLabels(`le="+Inf"`), cum[len(cum)-1])
				sumName, countName := base+"_sum", base+"_count"
				if rendered != "" {
					sumName += "{" + rendered + "}"
					countName += "{" + rendered + "}"
				}
				fmt.Fprintf(&b, "%s %s\n", sumName, fnum(m.hist.Sum()))
				fmt.Fprintf(&b, "%s %d\n", countName, m.hist.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
