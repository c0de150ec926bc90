package lattice

// DropIndex discards the answerability index, leaving a lattice of any
// size on the partial-order paths that lattices beyond MaxIndexNodes
// take. Test-only.
func (l *Lattice) DropIndex() { l.desc, l.anc = nil, nil }
