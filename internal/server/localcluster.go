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
	// in Cluster below); Frontend.Chaos worker-kill/partition
	// probabilities select which workers start dead or partitioned.
	Frontend Options
	// Worker seeds every worker server's Options. Workers never get
	// Cluster set and never see the frontend's worker-level chaos (solve
	// latency/panic chaos belongs here instead).
	Worker Options
	// Cluster refines the routing plane (seed, health tuning, attempt
	// timeout and failover budget — what TestClusterPartitionFailsOver and
	// TestClusterHealthEjectionAndRecovery drive). Workers and Transport
	// are overwritten by NewLocalCluster.
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

// NewLocalCluster builds the fleet, the transport, and the frontend,
// applying any seeded worker-kill/partition chaos from
// opts.Frontend.Chaos before the frontend's first health check.
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
	// Seeded chaos faults apply before the frontend exists, so its
	// health loop's very first sweep sees the broken fleet.
	for _, id := range lc.ids {
		if opts.Frontend.Chaos.killsWorker(id) {
			lc.Transport.Kill(id)
		}
		if opts.Frontend.Chaos.partitionsWorker(id) {
			lc.Transport.Partition(id)
		}
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

// WorkerIDs returns the ring member IDs in index order
// ("worker-0" ... "worker-N-1").
func (lc *LocalCluster) WorkerIDs() []string { return append([]string(nil), lc.ids...) }

// KillWorker / ReviveWorker / PartitionWorker / HealWorker inject and
// clear transport faults on one worker by ID.
func (lc *LocalCluster) KillWorker(id string)      { lc.Transport.Kill(id) }
func (lc *LocalCluster) ReviveWorker(id string)    { lc.Transport.Revive(id) }
func (lc *LocalCluster) PartitionWorker(id string) { lc.Transport.Partition(id) }
func (lc *LocalCluster) HealWorker(id string)      { lc.Transport.Heal(id) }

// InflightSolves sums the live solves across the frontend
// and every worker — the whole-topology leak detector: after traffic
// drains it must return to zero even when workers were killed
// mid-solve.
func (lc *LocalCluster) InflightSolves() int64 {
	n := lc.Frontend.InflightSolves()
	for _, w := range lc.Workers {
		n += w.InflightSolves()
	}
	return n
}

// Close stops the frontend's background loops. Workers have none, but
// Close covers them too in case they grow some.
func (lc *LocalCluster) Close() {
	lc.Frontend.Close()
	for _, w := range lc.Workers {
		w.Close()
	}
}
