package server

import "context"

// Test hooks: read-outs and fault controls only the tests use.

// setCancel attaches cancel to the call, to run beside the cancellation
// of its solve context — a test's stand-in for a solve. If every waiter
// already left, it runs on the spot.
func (g *flightGroup) setCancel(c *flightCall, cancel context.CancelFunc) {
	g.mu.Lock()
	c.cancel = cancel
	orphaned := c.waiters == 0
	g.mu.Unlock()
	if orphaned {
		cancel()
	}
}

// InflightSolves reports the number of live solves (queued, running, or
// finishing), each on its leader's request goroutine. After every
// request has drained it must return to zero — the leak detector,
// replacing "count goroutines and hope".
func (s *Server) InflightSolves() int64 { return s.inflightSolves.Load() }

// InflightSolves sums the live solves across the frontend and every
// worker: after traffic drains it must return to zero even when workers
// were killed mid-solve.
func (lc *LocalCluster) InflightSolves() int64 {
	n := lc.Frontend.InflightSolves()
	for _, w := range lc.Workers {
		n += w.InflightSolves()
	}
	return n
}

// len reports the number of in-flight keys.
func (g *flightGroup) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// Kill marks worker dead: new forwards fail instantly, forwards in
// flight observe a connection reset, and the worker-side request
// contexts are cancelled (a dead process stops solving).
func (t *MemTransport) Kill(worker string) {
	w := t.worker(worker)
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.killed {
		w.killed = true
		close(w.killedCh)
	}
}

// Partition black-holes worker: forwards to it hang until their
// context deadline instead of failing fast.
func (t *MemTransport) Partition(worker string) {
	w := t.worker(worker)
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partitioned = true
}

// Revive brings a killed or partitioned worker back.
func (t *MemTransport) Revive(worker string) {
	w := t.worker(worker)
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partitioned = false
	if w.killed {
		w.killed = false
		w.killedCh = make(chan struct{})
	}
}
