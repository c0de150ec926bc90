// Package obs is the repo's stdlib-only telemetry kernel: atomic
// counters, gauges and fixed-bucket latency histograms with label series
// preallocated at registration, a Prometheus-text exposition writer, and
// a per-phase span recorder for solve tracing.
//
// The design constraint is the serving layer's zero-alloc cache-hit
// contract (internal/server TestCacheHitAllocBudget): every fast-path
// instrument — Counter.Add/Inc, Gauge.Add, Histogram.Observe,
// Trace.Observe — is an atomic operation on a series resolved once at
// registration time. No maps, no label rendering, no interface boxing,
// no fmt on the record path; all of that happens at registration or at
// exposition. The fast paths are marked //mvlint:hotpath, so the
// hotpath analyzer fails the build if a future change sneaks a closure,
// defer, fmt call or string concatenation into an instrument.
//
// A Registry is an independent metric namespace; servers own one per
// instance so tests can build many servers without series collisions.
// Default is the process-wide registry for solver-side instruments
// (kernel builds/rebinds, incremental-evaluator moves, search
// evaluations) that have no server instance to hang off.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// metricKind discriminates how a series renders.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered (family, labels) instrument.
type series struct {
	// labels is the pre-rendered, escaped `k="v",k2="v2"` interior of
	// the label braces; empty for an unlabeled series.
	labels  string
	counter *Counter
	gauge   *Gauge
	// fn, when non-nil, supplies the value at exposition time (callback
	// counter/gauge for values owned elsewhere, e.g. cache byte counts).
	fn   func() float64
	hist *Histogram
}

// family is one metric name: its HELP/TYPE metadata plus every series.
type family struct {
	name string
	help string
	kind metricKind
	s    []*series
}

// Registry is a set of metric families. Registration (Counter, Gauge,
// Histogram, ...) is cheap but locks; the returned instruments are the
// lock-free handles the hot paths hold on to. WritePrometheus renders
// the whole registry in deterministic order.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry: solver-side counters with no
// server instance to belong to register here, and every server's
// /metrics endpoint appends it after its own registry.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds one series under name, creating or extending the
// family. Mixing kinds under one name, duplicating an exact
// (name, labels) series, or passing an odd label list is a programming
// error and panics at startup.
func (r *Registry) register(name, help string, kind metricKind, s *series, labels []string) *series {
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	for _, prev := range f.s {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, s.labels))
		}
	}
	f.s = append(f.s, s)
	return s
}

// Counter registers (or extends) a counter family and returns the
// series' lock-free handle. labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{counter: c}, labels)
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — for monotonic values owned elsewhere (a cache's
// eviction count, the cluster routing plane).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, &series{fn: fn}, labels)
}

// Gauge registers a gauge series and returns its lock-free handle.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{gauge: g}, labels)
	return g
}

// GaugeFunc registers a gauge series whose value is read from fn at
// exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, &series{fn: fn}, labels)
}

// Histogram registers a fixed-bucket duration histogram series and
// returns its lock-free handle. bounds must be strictly ascending; the
// +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...string) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, kindHistogram, &series{hist: h}, labels)
	return h
}

// renderLabels renders alternating key, value pairs into the escaped
// `k="v",k2="v2"` interior, sorted by key so a series' identity does not
// depend on argument order.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label list (want key, value pairs)")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b []byte
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.k...)
		b = append(b, '=', '"')
		b = appendEscapedLabel(b, p.v)
		b = append(b, '"')
	}
	return string(b)
}

// appendEscapedLabel escapes a label value per the Prometheus text
// format: backslash, double quote and newline.
func appendEscapedLabel(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, v[i])
		}
	}
	return b
}

// appendEscapedHelp escapes HELP text: backslash and newline (quotes are
// legal in help).
func appendEscapedHelp(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, v[i])
		}
	}
	return b
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label signature, one HELP and TYPE line per family, histograms in
// cumulative `le` form with the +Inf bucket, `_sum` and `_count`.
// Rendering takes the registration lock but reads the instruments with
// the same atomics the hot paths write, so exposition never blocks an
// increment.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var buf []byte
	var countsBuf []int64
	for _, name := range names {
		f := r.families[name]
		sers := make([]*series, len(f.s))
		copy(sers, f.s)
		sort.Slice(sers, func(i, j int) bool { return sers[i].labels < sers[j].labels })

		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, f.help)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind.String()...)
		buf = append(buf, '\n')
		for _, s := range sers {
			switch f.kind {
			case kindHistogram:
				buf, countsBuf = appendHistogram(buf, countsBuf, f.name, s)
			default:
				buf = appendSample(buf, f.name, "", s.labels, sampleValue(s))
			}
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf)
	return err
}

func sampleValue(s *series) float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// appendSample renders `name[suffix]{labels[,extra]} value\n`. extra, if
// non-empty, is a pre-rendered label pair appended after the series
// labels (the histogram `le`).
func appendSample(buf []byte, name, suffix, labels string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = appendFloat(buf, v)
	return append(buf, '\n')
}

// appendBucket renders one cumulative histogram bucket line.
func appendBucket(buf []byte, name, labels, le string, cum int64) []byte {
	buf = append(buf, name...)
	buf = append(buf, "_bucket{"...)
	if labels != "" {
		buf = append(buf, labels...)
		buf = append(buf, ',')
	}
	buf = append(buf, `le="`...)
	buf = append(buf, le...)
	buf = append(buf, `"} `...)
	buf = strconv.AppendInt(buf, cum, 10)
	return append(buf, '\n')
}

func appendHistogram(buf []byte, countsBuf []int64, name string, s *series) ([]byte, []int64) {
	h := s.hist
	countsBuf = h.snapshot(countsBuf)
	var cum int64
	for i, bound := range h.bounds {
		cum += countsBuf[i]
		buf = appendBucket(buf, name, s.labels, formatLE(bound), cum)
	}
	cum += countsBuf[len(h.bounds)]
	buf = appendBucket(buf, name, s.labels, "+Inf", cum)
	buf = appendSample(buf, name, "_sum", s.labels, time.Duration(h.sum.Load()).Seconds())
	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	if s.labels != "" {
		buf = append(buf, '{')
		buf = append(buf, s.labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, cum, 10)
	return append(buf, '\n'), countsBuf
}

// formatLE renders a bucket bound in seconds with minimal digits, so
// `le` values are stable, exact strings (10µs -> "1e-05").
func formatLE(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

func appendFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
