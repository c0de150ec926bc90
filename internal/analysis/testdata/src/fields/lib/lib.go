// Package lib is the field-setting fixture's declaring package: each
// field below is set or not, and each struct checked or not, for one
// stated reason.
package lib

// Options is checked: cmd builds it with a keyed literal.
type Options struct {
	// Keyed is set by a composite-literal key in cmd.
	Keyed int
	// Assigned is set by an assignment in cmd, through a promoted field.
	Assigned int
	// Counted is incremented in cmd.
	Counted int
	// Pointed is set through its address in cmd (flag.IntVar).
	Pointed int
	// ReadOnly only has its address taken, to be read: reported.
	ReadOnly int
	// Nested is set by cmd's write through it to Nested.Depth.
	Nested Inner
	// Defaulted is set only by withDefaults: reported.
	Defaulted int
	// TestOnly is set only by a _test.go file: reported.
	TestOnly int
	// Unset is set by nothing: reported.
	Unset int
	// Allowed is set by nothing but allowlisted.
	Allowed int
	// unexported fields are not checked.
	unexported int
}

func (o Options) withDefaults() Options {
	if o.Defaulted == 0 {
		o.Defaulted = 1
	}
	return o
}

// Inner is checked: cmd builds it with an empty literal.
type Inner struct {
	// Depth is set through Options.Nested in cmd.
	Depth int
	// Spare is set by nothing: reported.
	Spare int
}

// Wrapper is checked and promotes Options' fields.
type Wrapper struct{ Options }

// Pair is checked: cmd builds it with an unkeyed literal, which sets
// every field.
type Pair struct{ A, B int }

// Other is not checked: no literal builds it, so its unset field is not
// reported.
type Other struct{ Free int }

// TestBuilt is not checked: only a _test.go file builds it.
type TestBuilt struct{ Free int }
