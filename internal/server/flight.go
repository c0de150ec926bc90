package server

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent identical cold solves: while one
// request is computing the response for a cache key, later arrivals for
// the same key wait on the same in-flight call instead of launching
// duplicate solves. A stampede of K identical requests therefore costs
// exactly one lattice build + solve, run by the leader on its own request
// goroutine; the K-1 followers are billed only a channel wait. The group holds no history — an entry lives exactly as
// long as its solve, so memory is bounded by in-flight distinct keys.
//
// The group also owns solve-lifetime bookkeeping: every waiter (leader
// and followers alike) is refcounted, and when the last waiter abandons
// a call (timeout or client disconnect) the solve's context is
// cancelled and the key retired immediately — the next request for the
// key leads a fresh solve instead of wedging on the abandoned one.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight solve. done is closed after out is set,
// so any number of followers can read out without further locking.
// waiters and cancel are guarded by the owning group's mutex.
type flightCall struct {
	done chan struct{}
	out  outcome
	// waiters counts the requests that still want the outcome — the
	// leader while its client is there, and every follower blocked on
	// done; when it drops to zero before the solve finishes, nobody
	// wants the result and the solve is cancelled.
	waiters int
	// cancel stops the solve's context; set by the leader via setCancel
	// once that context exists.
	cancel context.CancelFunc
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join returns the in-flight call for key, creating it if absent.
// leader is true for the caller that must actually run the solve and
// eventually call finish. Every follower must eventually either observe
// done or call leave; the leader leaves when its client goes away
// (context.AfterFunc in Server.lead) and otherwise finishes.
func (g *flightGroup) join(key string) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		return c, false
	}
	c = &flightCall{done: make(chan struct{}), waiters: 1}
	g.calls[key] = c
	return c, true
}

// setCancel attaches the solve's cancel function to the call. If every
// waiter already left before the leader attached it, the solve is
// cancelled on the spot.
func (g *flightGroup) setCancel(c *flightCall, cancel context.CancelFunc) {
	g.mu.Lock()
	c.cancel = cancel
	orphaned := c.waiters == 0
	g.mu.Unlock()
	if orphaned {
		cancel()
	}
}

// leave drops one waiter from the call (request timed out or client
// disconnected). When the last waiter leaves before the solve finishes,
// the solve is cancelled and the key retired so the next arrival leads
// a fresh solve — an abandoned call can never wedge the key.
func (g *flightGroup) leave(key string, c *flightCall) {
	g.mu.Lock()
	c.waiters--
	var cancel context.CancelFunc
	if c.waiters <= 0 {
		cancel = c.cancel
		if g.calls[key] == c {
			delete(g.calls, key)
		}
	}
	g.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// finish publishes the outcome to every waiter and retires the key, so
// the next request for it consults the response cache (or, on error,
// retries the solve) instead of reading a stale call. The key is only
// retired if this call still owns it — leave may have already retired
// it and a fresh call may be in flight. The solve context is cancelled
// afterwards to release its deadline timer.
func (g *flightGroup) finish(key string, c *flightCall, out outcome) {
	g.mu.Lock()
	if g.calls[key] == c {
		delete(g.calls, key)
	}
	cancel := c.cancel
	g.mu.Unlock()
	c.out = out
	close(c.done)
	if cancel != nil {
		cancel()
	}
}

// len reports the number of in-flight keys (test hook).
func (g *flightGroup) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
