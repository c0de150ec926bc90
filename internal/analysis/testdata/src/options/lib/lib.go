// Package lib is the option-setting fixture's declaring package: each
// field of Options below is set or not for one stated reason.
package lib

// Options is the checked struct.
type Options struct {
	// Keyed is set by a composite-literal key in cmd.
	Keyed int
	// Assigned is set by an assignment in cmd, through a promoted field.
	Assigned int
	// Counted is incremented in cmd.
	Counted int
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

// Wrapper promotes Options' fields.
type Wrapper struct{ Options }

// Other is not a checked struct: its unset field is not reported.
type Other struct{ Free int }
