package server

import (
	"fmt"
	"net/http"
)

// LocalClusterOptions configures a single-process cluster: one
// stateless frontend plus N workers wired over a MemTransport. The
// frontend keeps its own canonicalization, memoization and
// singleflight, but routes every cold solve to a worker chosen by
// rendezvous hashing on the canonical cache key — so each worker's
// cache, kernel sessions and pools stay hot for "its" problems — with
// failover to the ring successor, and a shed when a key's whole
// candidate set is down. The frontend learns worker health
// from its own forwards only: failed ones eject a worker (shard.Tracker),
// and there is no background prober. A slow or silent worker is the
// per-attempt timeout's business (TestClusterPartitionFailsOver): half
// the frontend's RequestTimeout, so a partition burning the first
// attempt still leaves the successor a full try inside the request's
// deadline. A solve is never sent to two workers at once. Zero values
// select defaults.
type LocalClusterOptions struct {
	// Workers is the fleet size; default 3.
	Workers int
	// Frontend seeds the frontend server's Options.
	Frontend Options
	// Worker seeds every worker server's Options. Worker kills and
	// partitions go through LocalCluster.Transport.
	Worker Options
	// Seed keys the rendezvous ring: which worker owns which key.
	Seed int64
}

// LocalCluster is the whole topology inside one process: the frontend,
// its workers, and the fault-injectable transport between them. It
// backs `mvcloudd -cluster N` and the tier-1 chaos tests — everything
// runs under `go test -race` with no sockets.
type LocalCluster struct {
	Frontend *Server
	Workers  []*Server
	// Transport is the in-process fabric; tests inject kill/partition
	// faults through it (or via the typed helpers below).
	Transport *MemTransport
	ids       []string
}

// NewLocalCluster builds the fleet, the transport, and the frontend,
// and attaches the routing plane to the frontend.
func NewLocalCluster(opts LocalClusterOptions) *LocalCluster {
	n := opts.Workers
	if n <= 0 {
		n = 3
	}
	lc := &LocalCluster{Transport: NewMemTransport(), ids: make([]string, n)}
	for i := 0; i < n; i++ {
		lc.ids[i] = fmt.Sprintf("worker-%d", i)
		w := New(opts.Worker)
		lc.Workers = append(lc.Workers, w)
		lc.Transport.Register(lc.ids[i], w)
	}
	f := New(opts.Frontend)
	f.cluster = newClusterState(opts.Seed, lc.ids, lc.Transport, f.opts.RequestTimeout/2)
	f.cluster.registerClusterMetrics(f.reg)
	lc.Frontend = f
	return lc
}

// ServeHTTP delegates to the frontend — a LocalCluster drops in
// wherever a *Server handler does (httptest, http.Server).
func (lc *LocalCluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lc.Frontend.ServeHTTP(w, r)
}

// Close releases nothing: the topology starts no background goroutine.
// It stays so that callers which defer it need not know that.
func (lc *LocalCluster) Close() {}
