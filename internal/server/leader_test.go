package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The flight leader solves on its own request goroutine (Server.lead).
// These tests pin what that bought and what it came to depend on: no
// goroutine per miss, panic containment over the whole leader body, and
// net/http's detection of a closed connection as the leader's "leave".

// waitFor polls cond until it holds, failing the test after within.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", within, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// soleFlightWaiters is the waiter count of the one call in flight; -1
// when the number of calls in flight is not one.
func soleFlightWaiters(s *Server) int {
	s.flight.mu.Lock()
	defer s.flight.mu.Unlock()
	if len(s.flight.calls) != 1 {
		return -1
	}
	for _, c := range s.flight.calls {
		return c.waiters
	}
	return -1
}

// slowLogFunc adapts a function to the server's slow log. With
// SlowSolveThreshold at 1ns it runs once per solve, on the leader,
// between the solve and the cache fill: a seat inside the leader's body.
type slowLogFunc func()

func (f slowLogFunc) Write(b []byte) (int, error) { f(); return len(b), nil }

// TestLeaderPanicOutsideSolve: a panic in the leader's body but outside
// the solver — here the operator's slow-log writer — is contained like a
// solver panic. The leader and a follower coalesced onto it both get the
// 500; the admission slot, the flight key and the slow-log lock are all
// given back, which the next request for the same key proves by leading
// a fresh solve through a class with one worker and no queue.
func TestLeaderPanicOutsideSolve(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var panicking atomic.Bool
	panicking.Store(true)
	s := New(Options{AdviseWorkers: 1, AdviseQueue: -1, SlowSolveThreshold: time.Nanosecond})
	s.slowLog = slowLogFunc(func() {
		if panicking.Load() {
			close(entered)
			<-release
			panic("slow log: no space left on device")
		}
	})
	body := adviseBody("mv1", `"budget":25`)

	leader := make(chan *httptest.ResponseRecorder, 1)
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- do(t, s, "POST", "/v1/advise", body) }()
	<-entered // the leader is past its solve, holding its slot and its key
	go func() { follower <- do(t, s, "POST", "/v1/advise", body) }()
	waitFor(t, 5*time.Second, "the follower to join the flight", func() bool { return soleFlightWaiters(s) == 2 })
	close(release)

	for who, ch := range map[string]chan *httptest.ResponseRecorder{"leader": leader, "follower": follower} {
		w := <-ch
		if w.Code != 500 || !strings.Contains(w.Body.String(), "solve panic: slow log") {
			t.Errorf("%s: status %d, body %s; want the contained panic's 500", who, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Cache"); got != "" {
			t.Errorf("%s: X-Cache %q on a panic", who, got)
		}
	}
	if n := s.InflightSolves(); n != 0 {
		t.Errorf("InflightSolves() = %d after the panic", n)
	}
	if n := s.flight.len(); n != 0 {
		t.Errorf("%d flight keys still registered after the panic", n)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("the panicked solve cached %d entries", n)
	}
	if st := statsOf(t, s).Advise; st.Panics != 2 {
		t.Errorf("/v1/stats panics = %d, want 2 (leader and follower)", st.Panics)
	}

	// A leaked backlog entry would shed this request (one worker, no
	// queue); a leaked slot or a slow-log lock left locked would hold it
	// until the solve deadline. It must simply lead and solve.
	panicking.Store(false)
	w := do(t, s, "POST", "/v1/advise", body)
	if w.Code != 200 || w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("request after the panic: status %d, X-Cache %q: %s; want a fresh 200 miss",
			w.Code, w.Header().Get("X-Cache"), w.Body.String())
	}
	if got := s.m.solves.Value(); got != 2 {
		t.Errorf("%d solves, want 2 (the panicked one and the fresh one)", got)
	}
}

// sendAdvise writes one POST /v1/advise on a raw connection and returns
// without reading the reply; closing conn afterwards is the client
// vanishing mid-request.
func sendAdvise(t *testing.T, addr, body string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fmt.Fprintf(conn, "POST /v1/advise HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestLeaderDisconnectOverTCP pins the dependency the in-place leader
// took on: its client going away is seen only through r.Context(), which
// net/http cancels when it notices the closed connection. Over real TCP,
// with the solve held in injected latency:
//
//   - a sole leader whose client closes mid-solve is the last waiter
//     leaving: the solve is cancelled, the key retired and nothing cached,
//     long before the injected latency would have run out;
//   - with a follower attached, the leader's leave cancels nothing: its
//     goroutine finishes the solve for the follower, who gets the
//     coalesced 200, and the body is cached.
func TestLeaderDisconnectOverTCP(t *testing.T) {
	body := adviseBody("mv1", `"budget":25`)

	t.Run("sole leader", func(t *testing.T) {
		s := withChaos(New(Options{}), ChaosConfig{Seed: 1, LatencyProb: 1, Latency: 10 * time.Second})
		ts := httptest.NewServer(s)
		defer ts.Close()

		conn := sendAdvise(t, ts.Listener.Addr().String(), body)
		waitFor(t, 5*time.Second, "the solve to start", func() bool { return s.InflightSolves() == 1 })
		conn.Close()

		waitFor(t, time.Second, "the abandoned solve to be cancelled", func() bool {
			return s.InflightSolves() == 0 && s.flight.len() == 0
		})
		if n := s.cache.Len(); n != 0 {
			t.Errorf("the abandoned solve cached %d entries", n)
		}
	})

	t.Run("with a follower", func(t *testing.T) {
		s := withChaos(New(Options{}), ChaosConfig{Seed: 1, LatencyProb: 1, Latency: time.Second})
		ts := httptest.NewServer(s)
		defer ts.Close()

		conn := sendAdvise(t, ts.Listener.Addr().String(), body)
		waitFor(t, 5*time.Second, "the solve to start", func() bool { return s.InflightSolves() == 1 })
		type reply struct {
			status int
			xcache string
			body   []byte
			err    error
		}
		follower := make(chan reply, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/advise", "application/json", strings.NewReader(body))
			if err != nil {
				follower <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, err = buf.ReadFrom(resp.Body)
			follower <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), buf.Bytes(), err}
		}()
		waitFor(t, 5*time.Second, "the follower to join the flight", func() bool { return soleFlightWaiters(s) == 2 })
		conn.Close()
		// The leader's leave lands while the solve is still in flight: the
		// call is still registered, one waiter short.
		waitFor(t, 900*time.Millisecond, "the leader's leave", func() bool { return soleFlightWaiters(s) == 1 })

		got := <-follower
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.status != 200 || got.xcache != "coalesced" {
			t.Fatalf("follower: status %d, X-Cache %q: %s; want 200 coalesced", got.status, got.xcache, got.body)
		}
		waitFor(t, time.Second, "the leader to finish", func() bool {
			return s.InflightSolves() == 0 && s.flight.len() == 0
		})
		if w := do(t, s, "POST", "/v1/advise", body); w.Header().Get("X-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), got.body) {
			t.Errorf("repeat after the follower was served: X-Cache %q; want a hit with the follower's bytes", w.Header().Get("X-Cache"))
		}
		if got := s.m.solves.Value(); got != 1 {
			t.Errorf("%d solves, want 1", got)
		}
	})
}

// goid is the calling goroutine's id, from its stack header
// ("goroutine 37 [running]:").
func goid() int64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseInt(f[1], 10, 64)
	return id
}

// TestMissStartsNoGoroutine: between request entry and the response
// write, a miss creates no goroutine — the leader solves in place — and
// the solve runs on the very goroutine that called ServeHTTP. Goroutine
// ids are handed out in sequence on a single P, so the ids of two probe
// goroutines started either side of the request differ by exactly one
// when nothing was started in between. Anything else alive in the test
// binary can only add to that count, never hide a goroutine, so one
// clean attempt in five is proof; the go-statement per miss this
// replaced fails all five.
func TestMissStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var solvedOn int64
	s := New(Options{SlowSolveThreshold: time.Nanosecond})
	s.slowLog = slowLogFunc(func() { solvedOn = goid() })
	probe := func() int64 {
		ch := make(chan int64)
		go func() { ch <- goid() }()
		return <-ch
	}
	// The request context is cancellable, as net/http's is: registering
	// the leader's AfterFunc on it must not cost a goroutine either.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runtime.GC() // the collector's workers exist before anything is counted

	started := int64(-1)
	for attempt := 0; attempt < 5 && started != 0; attempt++ {
		req := httptest.NewRequest("POST", "/v1/advise",
			strings.NewReader(adviseBody("mv1", `"budget":`+strconv.Itoa(25+attempt)))).WithContext(ctx)
		w := httptest.NewRecorder()
		solvedOn = 0
		before := probe()
		s.ServeHTTP(w, req)
		n := probe() - before - 1
		if w.Code != 200 || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("status %d, X-Cache %q; want a 200 miss", w.Code, w.Header().Get("X-Cache"))
		}
		if me := goid(); solvedOn != me {
			t.Fatalf("the solve ran on goroutine %d, the request on %d", solvedOn, me)
		}
		if started < 0 || n < started {
			started = n
		}
	}
	if started != 0 {
		t.Errorf("a miss started %d goroutine(s) between request entry and response write, want 0", started)
	}
}
