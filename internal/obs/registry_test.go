package obs_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"vmcloud/internal/obs"
)

func render(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWritePrometheusScalars pins the scalar exposition shape: one HELP
// and one TYPE line per family, families sorted by name, series sorted
// by label signature, label keys sorted within a series.
func TestWritePrometheusScalars(t *testing.T) {
	r := obs.NewRegistry()
	b := r.Counter("test_requests_total", "requests served", "outcome", "hit", "endpoint", "advise")
	a := r.Counter("test_requests_total", "requests served", "endpoint", "advise", "outcome", "error")
	g := r.Gauge("test_inflight", "in-flight requests")
	r.GaugeFunc("test_cache_bytes", "resident bytes", func() float64 { return 42 })
	r.CounterFunc("test_evictions_total", "evictions", func() float64 { return 7 })
	a.Inc()
	b.Add(3)
	g.Add(5)

	got := render(t, r)
	want := strings.Join([]string{
		`# HELP test_cache_bytes resident bytes`,
		`# TYPE test_cache_bytes gauge`,
		`test_cache_bytes 42`,
		`# HELP test_evictions_total evictions`,
		`# TYPE test_evictions_total counter`,
		`test_evictions_total 7`,
		`# HELP test_inflight in-flight requests`,
		`# TYPE test_inflight gauge`,
		`test_inflight 5`,
		`# HELP test_requests_total requests served`,
		`# TYPE test_requests_total counter`,
		`test_requests_total{endpoint="advise",outcome="error"} 1`,
		`test_requests_total{endpoint="advise",outcome="hit"} 3`,
		``,
	}, "\n")
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if _, err := obs.ValidateText([]byte(got)); err != nil {
		t.Errorf("ValidateText rejected own render: %v", err)
	}
	// Deterministic: a second render is byte-identical.
	if again := render(t, r); again != got {
		t.Error("two renders of an unchanged registry differ")
	}
}

// TestLabelEscaping: backslash, quote and newline in a label value must
// render escaped, and the parser must recover the original value.
func TestLabelEscaping(t *testing.T) {
	r := obs.NewRegistry()
	raw := "a\\b\"c\nd"
	r.Counter("test_escaped_total", "escaping fixture", "path", raw).Inc()
	got := render(t, r)
	if !strings.Contains(got, `path="a\\b\"c\nd"`) {
		t.Errorf("label not escaped: %s", got)
	}
	samples, err := obs.ValidateText([]byte(got))
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range samples {
		if s.Name == "test_escaped_total" {
			found = true
			if s.Label("path") != raw {
				t.Errorf("round-tripped label = %q, want %q", s.Label("path"), raw)
			}
		}
	}
	if !found {
		t.Error("escaped series missing from parse")
	}
}

// TestHistogramExposition pins the cumulative `le` form: bucket counts
// accumulate, the +Inf bucket equals _count, and _sum is in seconds.
func TestHistogramExposition(t *testing.T) {
	r := obs.NewRegistry()
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	h := r.Histogram("test_latency_seconds", "latency", bounds, "endpoint", "advise")
	for _, d := range []time.Duration{
		500 * time.Microsecond, // <= 1ms
		5 * time.Millisecond,   // <= 10ms
		5 * time.Millisecond,   // <= 10ms
		50 * time.Millisecond,  // <= 100ms
		2 * time.Second,        // +Inf
	} {
		h.Observe(d)
	}
	got := render(t, r)
	for _, line := range []string{
		`test_latency_seconds_bucket{endpoint="advise",le="0.001"} 1`,
		`test_latency_seconds_bucket{endpoint="advise",le="0.01"} 3`,
		`test_latency_seconds_bucket{endpoint="advise",le="0.1"} 4`,
		`test_latency_seconds_bucket{endpoint="advise",le="+Inf"} 5`,
		`test_latency_seconds_sum{endpoint="advise"} 2.0605`,
		`test_latency_seconds_count{endpoint="advise"} 5`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, got)
		}
	}
	if _, err := obs.ValidateText([]byte(got)); err != nil {
		t.Errorf("ValidateText rejected histogram render: %v", err)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if want := 2*time.Second + 60*time.Millisecond + 500*time.Microsecond; h.Sum() != want {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
}

// TestDefLatencyBucketsExposition: the default layout renders exact,
// minimal-digit le strings (a drifting format would orphan dashboards).
func TestDefLatencyBucketsExposition(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("test_def_seconds", "default buckets", obs.DefLatencyBuckets)
	h.Observe(3 * time.Microsecond)
	got := render(t, r)
	for _, le := range []string{`le="1e-05"`, `le="0.00025"`, `le="1"`, `le="10"`, `le="+Inf"`} {
		if !strings.Contains(got, le) {
			t.Errorf("default buckets missing %s in:\n%s", le, got)
		}
	}
	if _, err := obs.ValidateText([]byte(got)); err != nil {
		t.Error(err)
	}
}

// TestRegistrationPanics: the misuse classes are programming errors that
// must fail loudly at startup, not corrupt exposition at runtime.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := obs.NewRegistry()
	r.Counter("test_kind_total", "fixture")
	mustPanic("kind mix", func() { r.Gauge("test_kind_total", "fixture") })
	r.Counter("test_dup_total", "fixture", "a", "b")
	mustPanic("duplicate series", func() { r.Counter("test_dup_total", "fixture", "a", "b") })
	mustPanic("odd labels", func() { r.Counter("test_odd_total", "fixture", "a") })
	mustPanic("descending bounds", func() {
		r.Histogram("test_desc_seconds", "fixture", []time.Duration{time.Second, time.Millisecond})
	})
}

// TestCounterConcurrency hammers one counter from many goroutines while
// a reader polls Value — the -race CI step turns any unsynchronized
// access into a failure, and the final count proves no increment is
// lost.
func TestCounterConcurrency(t *testing.T) {
	const goroutines = 16
	const perG = 10000
	c := obs.NewRegistry().Counter("test_stress_total", "stress fixture")
	done := make(chan struct{})
	go func() { // concurrent reader: Value must tolerate in-flight adds
		for {
			select {
			case <-done:
				return
			default:
				c.Value()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("Value = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramConcurrency: concurrent observers and an exposition
// reader; the count must equal the number of observations.
func TestHistogramConcurrency(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	r := obs.NewRegistry()
	h := r.Histogram("test_stress_seconds", "stress fixture", obs.DefLatencyBuckets)
	done := make(chan struct{}, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
			done <- struct{}{}
		}(g)
	}
	var buf bytes.Buffer
	for i := 0; i < 50; i++ { // exposition concurrent with observation
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("Count = %d, want %d", got, goroutines*perG)
	}
	if _, err := obs.ValidateText([]byte(render(t, r))); err != nil {
		t.Error(err)
	}
}

// TestGauge: Add/Value semantics, including negative excursions.
func TestGauge(t *testing.T) {
	g := obs.NewRegistry().Gauge("test_gauge", "fixture")
	g.Add(10)
	g.Add(-3)
	g.Add(1)
	if got := g.Value(); got != 8 {
		t.Errorf("Value = %d, want 8", got)
	}
}
