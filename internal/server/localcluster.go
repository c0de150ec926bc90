package server

import (
	"fmt"
	"net/http"
)

// LocalClusterOptions configures a single-process cluster: one
// stateless frontend plus N workers wired over a MemTransport.
type LocalClusterOptions struct {
	// Workers is the fleet size; default 3.
	Workers int
	// Frontend seeds the frontend server's Options. Frontend.Cluster is
	// built by NewLocalCluster (Workers, Transport, and any fields set
	// in Cluster below).
	Frontend Options
	// Worker seeds every worker server's Options. Workers never get
	// Cluster set; solve latency/panic chaos belongs here, and worker
	// kills and partitions go through LocalCluster.Transport.
	Worker Options
	// Cluster refines the routing plane (seed and attempt timeout — what
	// TestClusterPartitionFailsOver drives). Workers and Transport are
	// overwritten by NewLocalCluster.
	Cluster ClusterOptions
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

// NewLocalCluster builds the fleet, the transport, and the frontend.
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
	copts := opts.Cluster
	copts.Workers = lc.ids
	copts.Transport = lc.Transport
	fopts := opts.Frontend
	fopts.Cluster = &copts
	lc.Frontend = New(fopts)
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
