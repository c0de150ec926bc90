// Package reuse resizes the arrays that a recycled workspace carries
// from one cold solve to the next (core.Workspace). A builder that
// takes its arrays through Zeroed makes each one at its exact size when
// it is handed none, and makes none once it is handed arrays large
// enough: there is one builder, not a pooled one beside a fresh one.
package reuse

import "unsafe"

// Zeroed returns x resized to n elements, every one zero: x's own
// array when its capacity holds n, a new array of exactly n otherwise.
func Zeroed[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	x = x[:n]
	clear(x)
	return x
}

// Arena cuts slices one past another from one array, so that what it
// handed out stays as it was while it cuts more. The zero value is
// ready to use.
//
// A cut that does not fit is made on a new array of exactly its size,
// as a plain make would be: the slices cut before keep the old array
// alive for as long as their holders do, and an arena that is never
// reset holds only its last cut, not everything it ever cut. Reset
// sizes the array for as much as was cut since the last Reset, so an
// arena reset before every solve allocates nothing once it has seen
// the largest solve.
type Arena[T any] struct {
	buf  []T
	used int // elements cut since the last Reset
}

// Cut returns n zero elements, never nil, that no earlier cut shares.
func (a *Arena[T]) Cut(n int) []T {
	if a.buf == nil || cap(a.buf)-len(a.buf) < n {
		a.buf = make([]T, 0, n)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	clear(a.buf[start:])
	a.used += n
	return a.buf[start : start+n : start+n]
}

// Reset starts cutting over from the start of the array: nothing cut
// before may be used after it.
func (a *Arena[T]) Reset() {
	if cap(a.buf) < a.used {
		a.buf = make([]T, 0, a.used)
	}
	a.buf, a.used = a.buf[:0], 0
}

// Bytes reports the size of x's array.
func Bytes[T any](x []T) int {
	var zero T
	return cap(x) * int(unsafe.Sizeof(zero))
}

// Bytes reports the size of the arena's array.
func (a *Arena[T]) Bytes() int { return Bytes(a.buf) }
