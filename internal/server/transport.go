package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// WorkerReply is what one forwarded attempt observed from a worker:
// the status, the response body, and the serving metadata the frontend
// relays (degradation marker, shed backoff hint).
type WorkerReply struct {
	Status     int
	Body       []byte
	Degraded   bool
	RetryAfter time.Duration
}

// errWorkerDown and errWorkerPartitioned are the transport-level
// failures MemTransport injects: a killed worker refuses instantly
// (like a closed TCP port), a partitioned one hangs until the attempt
// deadline (like a black-holed route).
var (
	errWorkerDown        = errors.New("worker down: connection refused")
	errWorkerKilledMid   = errors.New("worker died mid-request: connection reset")
	errUnknownWorker     = errors.New("unknown worker")
	errWorkerPartitioned = errors.New("worker partitioned: request timed out")
)

// memWorker is one in-process worker endpoint plus its fault state.
type memWorker struct {
	srv *Server

	mu          sync.Mutex
	killed      bool
	partitioned bool
	// killedCh is closed while the worker is killed, so forwards in
	// flight observe the death immediately (connection reset) instead
	// of waiting out their deadline. Recreated on revive.
	killedCh chan struct{}
}

// MemTransport moves solves from a cluster frontend to its workers,
// in-process: forwards are direct ServeHTTP calls on the workers'
// serving stacks, through a per-worker kill and partition fault state
// the package's tests set (hooks_test.go). It powers `mvcloudd -cluster
// N`, the race-mode chaos e2e, and every tier-1 cluster test — the whole
// topology inside one process, no sockets. It is safe for concurrent
// use.
type MemTransport struct {
	mu      sync.Mutex
	workers map[string]*memWorker
}

// NewMemTransport builds an empty in-process transport; Register adds
// workers.
func NewMemTransport() *MemTransport {
	return &MemTransport{workers: make(map[string]*memWorker)}
}

// Register adds (or replaces) a worker.
func (t *MemTransport) Register(worker string, srv *Server) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.workers[worker] = &memWorker{srv: srv, killedCh: make(chan struct{})}
}

func (t *MemTransport) worker(name string) *memWorker {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.workers[name]
}

// Forward posts body to path on worker, with account carried as the
// tenant namespace. A reply is returned for any HTTP response, including
// 4xx/5xx; err is reserved for transport-level failure (refused, reset,
// partition, ctx done). It honours ctx: the frontend's per-attempt
// timeout is the only thing that turns a partition into a detectable
// failure.
func (t *MemTransport) Forward(ctx context.Context, worker, path, account string, body []byte) (*WorkerReply, error) {
	w := t.worker(worker)
	if w == nil {
		return nil, errUnknownWorker
	}
	w.mu.Lock()
	killed, partitioned, killedCh := w.killed, w.partitioned, w.killedCh
	w.mu.Unlock()
	if killed {
		return nil, errWorkerDown
	}
	if partitioned {
		// A partition doesn't refuse — it swallows. Only the caller's
		// deadline bounds the wait, exactly like a black-holed route.
		<-ctx.Done()
		return nil, errWorkerPartitioned
	}

	// The worker request lives under rctx: it dies when the frontend
	// attempt gives up OR when the worker is killed mid-flight, so the
	// worker-side flight group sees its waiter leave and cancels the
	// solve — an in-process stand-in for "the TCP connection died".
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan *WorkerReply, 1)
	go func() {
		req, err := http.NewRequestWithContext(rctx, http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			done <- &WorkerReply{Status: http.StatusInternalServerError, Body: []byte(err.Error())}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if account != "" {
			req.Header.Set("X-Account", account)
		}
		rec := newMemRecorder()
		w.srv.ServeHTTP(rec, req)
		done <- rec.reply()
	}()
	select {
	case rep := <-done:
		return rep, nil
	case <-killedCh:
		return nil, errWorkerKilledMid
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// memRecorder captures one in-process worker response: status,
// headers, and a copy of the body.
type memRecorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func newMemRecorder() *memRecorder {
	return &memRecorder{h: make(http.Header, 4), status: http.StatusOK}
}

func (r *memRecorder) Header() http.Header         { return r.h }
func (r *memRecorder) WriteHeader(s int)           { r.status = s }
func (r *memRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// reply converts the recorded response to the wire form, copying the
// body out of the recorder (the reply may outlive it).
func (r *memRecorder) reply() *WorkerReply {
	return &WorkerReply{
		Status:     r.status,
		Body:       append([]byte(nil), r.body.Bytes()...),
		Degraded:   r.h.Get("X-Degraded") == "true",
		RetryAfter: parseRetryAfter(r.h.Get("Retry-After")),
	}
}

// parseRetryAfter reads a whole-seconds Retry-After value, 0 when
// absent or malformed.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// workerErrorMessage extracts the "error" field from a worker's JSON
// error body, falling back to the raw body.
func workerErrorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(body))
}
