package core

import (
	"sync"
	"unsafe"

	"vmcloud/internal/cluster"
	"vmcloud/internal/lattice"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/reuse"
	"vmcloud/internal/views"
)

// Workspace owns the arrays of one cold solve: the lattice's node
// statistics, the candidate pool and its HRU scratch, the comparison
// kernel, and for each tariff cell the cluster, estimator, evaluator
// and kernel session with the slices its answers are read from
// (selection points, view names, frontier points). NewShared builds on
// the workspace its Config carries, and every advisor of that Shared
// takes a cell of it. A workspace built on again reuses its arrays, so
// a cold solve on a recycled workspace allocates little beyond what the
// caller keeps.
//
// A workspace serves one solve at a time. NewShared on it starts over:
// from then on nothing built on it before — the Shared, its advisors,
// their recommendations and frontiers — may be used. The zero value is
// ready to use, and a nil Config.Workspace stands for a new one, which
// nothing else ever builds on.
type Workspace struct {
	sh    Shared
	lat   lattice.Lattice
	qids  []int
	pool  views.Pool
	kern  optimizer.ComparisonKernel
	names []string

	// mu guards cells and used: Shared.Advisor may be called from many
	// goroutines.
	mu    sync.Mutex
	cells []*cell
	used  int // cells handed out since the last NewShared
}

// cell is one tariff binding of a workspace: an advisor and everything
// it points to.
type cell struct {
	adv  Advisor
	cl   cluster.Cluster
	est  views.Estimator
	ev   optimizer.Evaluator
	sess optimizer.KernelSession
	// names is where recommendations' view names are cut from, front
	// where frontiers are; scs, sels, all and order are ParetoFront's
	// scratch (order NonDominated's).
	names reuse.Arena[string]
	front reuse.Arena[ParetoPoint]
	scs   []optimizer.Scenario
	sels  []optimizer.Selection
	all   []ParetoPoint
	order []int
}

// start begins a solve on the workspace: every cell is free again.
func (ws *Workspace) start() {
	ws.mu.Lock()
	ws.used = 0
	ws.mu.Unlock()
}

// cell hands out the next free cell, a new one when every cell is
// taken, with its arenas started over.
func (ws *Workspace) cell() *cell {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.used == len(ws.cells) {
		ws.cells = append(ws.cells, new(cell))
	}
	c := ws.cells[ws.used]
	ws.used++
	c.names.Reset()
	c.front.Reset()
	return c
}

// Bytes reports the size of the workspace's arrays and cells: what a
// pool that keeps the workspace keeps alive.
func (ws *Workspace) Bytes() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	n := int(unsafe.Sizeof(*ws)) + ws.lat.NumNodes()*int(unsafe.Sizeof(lattice.Node{})) +
		reuse.Bytes(ws.qids) + ws.pool.Bytes() + ws.kern.Bytes() + reuse.Bytes(ws.names) + reuse.Bytes(ws.cells)
	for _, c := range ws.cells {
		n += int(unsafe.Sizeof(*c)) + c.sess.Bytes() + c.names.Bytes() + c.front.Bytes() +
			reuse.Bytes(c.scs) + reuse.Bytes(c.sels) + reuse.Bytes(c.all) + reuse.Bytes(c.order)
	}
	return n
}
