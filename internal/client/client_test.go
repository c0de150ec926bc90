package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSleep records requested waits without sleeping.
type fakeSleep struct{ waits []time.Duration }

func (f *fakeSleep) sleep(_ context.Context, d time.Duration) error {
	f.waits = append(f.waits, d)
	return nil
}

// scripted returns each status in sequence, then 200 "ok" forever.
// 429s carry a Retry-After: 2 hint.
func scripted(t *testing.T, statuses ...int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := calls.Add(1) - 1
		if int(i) < len(statuses) {
			s := statuses[i]
			if s == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "2")
			}
			w.WriteHeader(s)
			w.Write([]byte(http.StatusText(s)))
			return
		}
		w.Write([]byte(`ok`))
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// TestRetryAfterHonored: a shed server's Retry-After hint is what the
// client waits, not the blind exponential.
func TestRetryAfterHonored(t *testing.T) {
	ts, calls := scripted(t, 429, 429)
	fs := &fakeSleep{}
	c := &Client{BaseURL: ts.URL, Seed: 1, sleep: fs.sleep}
	out, err := c.Do(context.Background(), "/v1/advise", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Fatalf("body %q", out)
	}
	if calls.Load() != 3 {
		t.Errorf("%d requests, want 3", calls.Load())
	}
	if len(fs.waits) != 2 || fs.waits[0] != 2*time.Second || fs.waits[1] != 2*time.Second {
		t.Errorf("waits %v, want [2s 2s] from Retry-After", fs.waits)
	}
}

// TestTransientRetriedWithJitteredBackoff: 5xx retries on the seeded
// exponential — deterministic for a seed, in [step/2, step), doubling.
func TestTransientRetriedWithJitteredBackoff(t *testing.T) {
	run := func() []time.Duration {
		ts, _ := scripted(t, 503, 502, 500)
		fs := &fakeSleep{}
		c := &Client{BaseURL: ts.URL, Seed: 42, sleep: fs.sleep}
		if _, err := c.Do(context.Background(), "/v1/advise", nil); err != nil {
			t.Fatal(err)
		}
		return fs.waits
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("waits %v, want 3", a)
	}
	for i, w := range a {
		step := baseBackoff << uint(i)
		if w < step/2 || w >= step {
			t.Errorf("wait %d = %v outside [%v, %v)", i, w, step/2, step)
		}
		if w != b[i] {
			t.Errorf("wait %d not deterministic: %v vs %v", i, w, b[i])
		}
	}
}

// TestMaxRetriesGivesUp: a persistently failing server exhausts the
// attempt cap: the initial attempt plus maxRetries.
func TestMaxRetriesGivesUp(t *testing.T) {
	ts, calls := scripted(t, 503, 503, 503, 503, 503, 503, 503, 503)
	fs := &fakeSleep{}
	c := &Client{BaseURL: ts.URL, Seed: 1, sleep: fs.sleep}
	_, err := c.Do(context.Background(), "/v1/advise", nil)
	if err == nil || !strings.Contains(err.Error(), "giving up after 5 attempts") {
		t.Fatalf("err = %v, want giving-up verdict", err)
	}
	if calls.Load() != 1+maxRetries {
		t.Errorf("%d requests, want %d (1 + %d retries)", calls.Load(), 1+maxRetries, maxRetries)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 503 {
		t.Errorf("cause %v, want wrapped StatusError 503", err)
	}
}

// TestRetryBudgetCapsRetryAfter: a huge Retry-After fails fast instead
// of sleeping through the budget.
func TestRetryBudgetCapsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "20")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)
	fs := &fakeSleep{}
	c := &Client{BaseURL: ts.URL, Seed: 1, sleep: fs.sleep}
	_, err := c.Do(context.Background(), "/v1/advise", nil)
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want budget verdict", err)
	}
	// 20s fits the 30s budget once; the second 20s wait would overrun.
	if calls.Load() != 2 || len(fs.waits) != 1 {
		t.Errorf("%d requests, %d waits; want 2 and 1", calls.Load(), len(fs.waits))
	}
}

// TestBadRequestNeverRetried: 4xx is the caller's bug, not overload.
func TestBadRequestNeverRetried(t *testing.T) {
	ts, calls := scripted(t, 400)
	c := &Client{BaseURL: ts.URL, sleep: func(context.Context, time.Duration) error {
		t.Fatal("slept on a 400")
		return nil
	}}
	_, err := c.Do(context.Background(), "/v1/advise", []byte(`{`))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 400 || se.Retryable() {
		t.Fatalf("err = %v, want non-retryable StatusError 400", err)
	}
	if calls.Load() != 1 {
		t.Errorf("%d requests, want exactly 1", calls.Load())
	}
}

// TestCancelledContextStopsRetrying: cancellation during backoff
// returns promptly with the context's error (the first real backoff is
// at least 100ms; the cancel comes at 50ms).
func TestCancelledContextStopsRetrying(t *testing.T) {
	ts, _ := scripted(t, 503, 503, 503, 503)
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{BaseURL: ts.URL, Seed: 1} // real sleep
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := c.Do(ctx, "/v1/advise", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("took %v to notice cancellation", d)
	}
}

// TestAttemptTimeoutRecoversFromStall: a server that hangs on the
// first request must not consume the whole context deadline — the
// attempt's slice of it (a fifth) kills the stalled attempt and the
// retry succeeds well inside the deadline.
func TestAttemptTimeoutRecoversFromStall(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Stall the first attempt until the test ends.
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte(`ok`))
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })

	fs := &fakeSleep{}
	c := &Client{BaseURL: ts.URL, Seed: 1, sleep: fs.sleep}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	out, err := c.Do(ctx, "/v1/advise", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Fatalf("body %q", out)
	}
	if calls.Load() != 2 {
		t.Errorf("%d requests, want 2 (stalled + retried)", calls.Load())
	}
	if d := time.Since(t0); d > 4*time.Second {
		t.Errorf("took %v; the stalled attempt consumed the deadline", d)
	}
}

// TestAttemptTimeoutDerivedFromDeadline: the remaining deadline is
// split across the attempts still allowed, so a server that stalls
// twice still yields every retry a turn.
func TestAttemptTimeoutDerivedFromDeadline(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte(`ok`))
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })

	fs := &fakeSleep{}
	c := &Client{BaseURL: ts.URL, Seed: 1, sleep: fs.sleep}
	// 2s deadline, 5 attempts: each attempt is capped around 400ms, so
	// two stalled attempts burn well under the full deadline and the
	// third succeeds.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := c.Do(ctx, "/v1/advise", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Fatalf("body %q", out)
	}
	if calls.Load() != 3 {
		t.Errorf("%d requests, want 3", calls.Load())
	}
}
