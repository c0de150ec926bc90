package reuse

import (
	"testing"
	"unsafe"
)

func TestZeroed(t *testing.T) {
	x := Zeroed[int](nil, 3)
	if len(x) != 3 || cap(x) != 3 {
		t.Fatalf("from nil: len %d cap %d, want 3 3", len(x), cap(x))
	}
	x[0], x[1], x[2] = 1, 2, 3
	y := Zeroed(x, 2)
	if &y[0] != &x[0] || len(y) != 2 || y[0] != 0 || y[1] != 0 {
		t.Fatalf("shrink: %v, want [0 0] on the same array", y)
	}
	if x[2] != 3 {
		t.Error("shrink cleared past the new length")
	}
	z := Zeroed(y, 4)
	if len(z) != 4 || &z[0] == &x[0] {
		t.Fatalf("grow past the capacity: len %d, want 4 on a new array", len(z))
	}
	if allocs := testing.AllocsPerRun(100, func() { y = Zeroed(y, 3) }); allocs != 0 {
		t.Errorf("a resize within the capacity allocates %v times", allocs)
	}
}

func TestArena(t *testing.T) {
	var a Arena[int]
	if x := a.Cut(0); x == nil || len(x) != 0 {
		t.Fatalf("Cut(0) = %#v, want empty and non-nil", x)
	}
	x := a.Cut(3)
	x[0], x[1], x[2] = 1, 2, 3
	y := a.Cut(2) // the array of 3 is full: a new one of 2
	if len(y) != 2 || cap(y) != 2 || y[0] != 0 || y[1] != 0 {
		t.Fatalf("second cut %v (cap %d), want two zeros capped at 2", y, cap(y))
	}
	y[0], y[1] = 4, 5
	_ = append(y, 6) // capped: the append copies y, never writes the arena's next cut
	if z := a.Cut(1); z[0] != 0 || x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Fatalf("a cut wrote over an earlier one: %v %v", x, z)
	}
	a.Reset() // 6 cut since the start: room for 6
	if allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		a.Cut(3)
		a.Cut(1)
		a.Cut(2)
	}); allocs != 0 {
		t.Errorf("cuts within what the last round cut allocate %v times", allocs)
	}
	if want := 6 * int(unsafe.Sizeof(0)); a.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", a.Bytes(), want)
	}
}
