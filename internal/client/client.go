// Package client is the retrying HTTP client for a running mvcloudd:
// it posts wire-form JSON to the /v1 endpoints and turns the server's
// overload protocol into polite client behaviour. Admission-control
// sheds (429) are retried after the server's own Retry-After hint,
// transient failures (5xx, transport errors) after seeded, jittered
// exponential backoff — both under a hard cap on attempts and a
// cumulative retry budget, so a persistently overloaded server makes
// the client give up quickly instead of piling on.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The retry policy: modest, CLI-appropriate persistence.
const (
	// maxRetries caps the retries after the initial attempt.
	maxRetries = 4
	// baseBackoff is the first backoff step; each retry doubles it, so
	// the largest step is 1.6s. A server Retry-After hint overrides the
	// computed backoff.
	baseBackoff = 200 * time.Millisecond
	// budget caps the cumulative time spent waiting between retries. A
	// wait that would overrun the remaining budget — e.g. a long
	// Retry-After from a deeply backed-up server — fails fast instead of
	// sleeping through it.
	budget = 30 * time.Second
)

// Client posts JSON bodies to BaseURL and retries retryable failures.
// The zero value (plus BaseURL) is usable.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Seed makes the backoff jitter deterministic; same seed, same
	// wait sequence.
	Seed int64

	// sleep is the wait hook; nil means a real context-aware sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// StatusError is a non-2xx response. Retryable reports whether Do
// would retry it (429 or 5xx).
type StatusError struct {
	Status int
	// Body is the response body, truncated; the server's error messages
	// are one line.
	Body string
	// RetryAfter is the parsed Retry-After hint on a 429, 0 otherwise.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Body)
}

// Retryable reports whether the status is worth retrying: overload
// sheds and server-side failures, but never 4xx request errors.
func (e *StatusError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Do posts body as JSON to path and returns the response body,
// retrying per the client's policy. It is safe for concurrent use;
// concurrent calls share the seed but jitter independently.
func (c *Client) Do(ctx context.Context, path string, body []byte) ([]byte, error) {
	// xorshift64* keyed on the seed: deterministic jitter without any
	// global randomness, stepped once per retry.
	rng := uint64(c.Seed)*2685821657736338717 + 1

	var slept time.Duration
	for attempt := 0; ; attempt++ {
		actx, cancel := attemptContext(ctx, attempt)
		out, err := c.post(actx, path, body)
		cancel()
		if err == nil {
			return out, nil
		}
		var se *StatusError
		if errors.As(err, &se) && !se.Retryable() {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt >= maxRetries {
			return nil, fmt.Errorf("giving up after %d attempts: %w", attempt+1, err)
		}
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		wait := backoff(attempt, rng)
		if se != nil && se.RetryAfter > 0 {
			// The server's hint is derived from its actual queue depth
			// and solve latency; trust it over the blind exponential.
			wait = se.RetryAfter
		}
		if slept+wait > budget {
			return nil, fmt.Errorf("retry budget %v exhausted (waited %v, next wait %v): %w",
				budget, slept, wait, err)
		}
		if err := c.doSleep(ctx, wait); err != nil {
			return nil, err
		}
		slept += wait
	}
}

// attemptContext bounds one attempt: the context's remaining time is
// split evenly across this attempt and every retry still allowed, so
// each attempt gets a fair slice instead of the first stalled one
// consuming the whole deadline before the retry policy ever gets a say.
func attemptContext(ctx context.Context, attempt int) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	to := time.Until(dl) / time.Duration(maxRetries-attempt+1)
	if to <= 0 {
		// Deadline already passed; let post observe the dead context.
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, to)
}

// backoff is the jittered exponential wait before retry attempt+1:
// uniformly in [step/2, step) where step doubles from baseBackoff.
func backoff(attempt int, rng uint64) time.Duration {
	step := baseBackoff << uint(attempt)
	frac := float64(rng>>11) / float64(1<<53) // uniform [0,1)
	return step/2 + time.Duration(frac*float64(step/2))
}

func (c *Client) doSleep(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// post is one attempt: POST, drain, classify.
func (c *Client) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.BaseURL, "/")+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Status: resp.StatusCode, Body: strings.TrimSpace(string(data))}
		if len(se.Body) > 512 {
			se.Body = se.Body[:512] + "..."
		}
		if secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return nil, se
	}
	return data, nil
}
