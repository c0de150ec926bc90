package server

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vmcloud/internal/obs"
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

// flightCall is one in-flight solve, and the one record a miss
// allocates for what surrounds its solve: the coalescing state, the
// solve's context and its trace. waiters, retired and done are guarded
// by the owning group's mutex.
type flightCall struct {
	// done is closed after out is set, so any number of followers can
	// read out without further locking. The first follower's join makes
	// it: a call nobody follows never needs one.
	done chan struct{}
	out  outcome
	// waiters counts the requests that still want the outcome — the
	// leader while its client is there, and every follower blocked on
	// done; when it drops to zero before the solve finishes, nobody
	// wants the result and the solve is cancelled.
	waiters int
	// retired is set once the key no longer maps to this call (the last
	// leave or finish removed it), so neither looks the key up again.
	retired bool
	// cancel, when set (a test's setCancel), runs beside the cancellation
	// of ctx.
	cancel context.CancelFunc
	// ctx is the solve's context (solveContext), armed by the leader.
	ctx solveContext
	// trace is the solve's per-phase trace; followers read it through
	// out.phases.
	trace obs.Trace
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
		if c.done == nil {
			c.done = make(chan struct{})
		}
		return c, false
	}
	c = &flightCall{waiters: 1}
	g.calls[key] = c
	return c, true
}

// retire removes c's key unless that is done already. Called with g.mu
// held.
func (g *flightGroup) retire(key string, c *flightCall) {
	if !c.retired {
		delete(g.calls, key)
		c.retired = true
	}
}

// leave drops one waiter from the call (request timed out or client
// disconnected). When the last waiter leaves before the solve finishes,
// the solve is cancelled and the key retired so the next arrival leads
// a fresh solve — an abandoned call can never wedge the key.
func (g *flightGroup) leave(key string, c *flightCall) {
	g.mu.Lock()
	c.waiters--
	last := c.waiters <= 0
	if last {
		g.retire(key, c)
	}
	g.mu.Unlock()
	if last {
		c.stop()
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
	g.retire(key, c)
	done := c.done
	g.mu.Unlock()
	c.out = out
	if done != nil {
		close(done)
	}
	c.stop()
}

// stop cancels the solve's context.
func (c *flightCall) stop() {
	c.ctx.stop(ctxCanceled)
	if c.cancel != nil {
		c.cancel()
	}
}

// The states of a solveContext.
const (
	ctxLive uint32 = iota
	ctxCanceled
	ctxExpired
)

// solveContext is a solve's context.Context: its deadline, and the
// cancellation the flight group applies when the last waiter leaves or
// the outcome is published. It is part of the flight call, so a solve
// pays for no context of its own. Err compares the clock with the
// deadline, so a solve that only polls — admission's free-slot path,
// compare's per-cell check, fill — never arms a timer or makes a
// channel; the first Done or AfterFunc makes both. It implements
// AfterFunc, which context's propagateCancel looks for: a context
// derived from it (a cluster forward attempt's timeout) registers a
// callback here instead of starting a goroutine to watch Done.
type solveContext struct {
	deadline time.Time
	// state is one of ctxLive, ctxCanceled, ctxExpired; it leaves ctxLive
	// once, under mu.
	state atomic.Uint32
	mu    sync.Mutex
	done  chan struct{}
	timer *time.Timer
	// hooks are the AfterFunc callbacks still to run.
	hooks []*func()
}

// start arms c with a deadline timeout from now and returns it.
func (c *solveContext) start(timeout time.Duration) context.Context {
	c.deadline = time.Now().Add(timeout)
	return c
}

func (c *solveContext) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *solveContext) Value(any) any { return nil }

func (c *solveContext) Err() error {
	switch c.state.Load() {
	case ctxCanceled:
		return context.Canceled
	case ctxExpired:
		return context.DeadlineExceeded
	}
	if time.Now().Before(c.deadline) {
		return nil
	}
	c.stop(ctxExpired)
	return c.Err()
}

func (c *solveContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm()
	return c.done
}

// arm makes the done channel and the deadline timer. Called with mu
// held.
func (c *solveContext) arm() {
	if c.done != nil {
		return
	}
	c.done = make(chan struct{})
	if c.state.Load() != ctxLive {
		close(c.done)
		return
	}
	c.timer = time.AfterFunc(time.Until(c.deadline), c.expire)
}

func (c *solveContext) expire() { c.stop(ctxExpired) }

// stop moves c out of ctxLive into state, once: it closes done, stops the
// timer and runs the AfterFunc callbacks.
func (c *solveContext) stop(state uint32) {
	c.mu.Lock()
	if c.state.Load() != ctxLive {
		c.mu.Unlock()
		return
	}
	c.state.Store(state)
	if c.done != nil {
		close(c.done)
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	hooks := c.hooks
	c.hooks = nil
	c.mu.Unlock()
	for _, f := range hooks {
		(*f)()
	}
}

// solveContext is context's afterFuncer: what propagateCancel asks a
// parent it does not know for before it resorts to a goroutine.
var _ interface {
	AfterFunc(func()) (stop func() bool)
} = (*solveContext)(nil)

// AfterFunc arranges for f to run once c is done, and returns a stop
// function that reports whether it kept f from running — context's
// afterFuncer, through which propagateCancel links a derived context.
func (c *solveContext) AfterFunc(f func()) (stop func() bool) {
	h := &f
	c.mu.Lock()
	c.arm()
	if c.state.Load() != ctxLive {
		c.mu.Unlock()
		// The caller may hold a lock f takes (propagateCancel does).
		go f()
		return func() bool { return false }
	}
	c.hooks = append(c.hooks, h)
	c.mu.Unlock()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		i := slices.Index(c.hooks, h)
		if i < 0 {
			return false
		}
		c.hooks = slices.Delete(c.hooks, i, i+1)
		return true
	}
}
