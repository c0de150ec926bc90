// Package lib is the declaration-reachability fixture's checked package:
// each declaration below is reached or not for one stated reason.
package lib

// Used is called by the root package: reached.
func Used() int { return 1 }

// Unused has no caller: reported.
func Unused() int { return helper() }

// helper's only caller is Unused, so it is reported once Unused is:
// a use inside an unreached declaration does not count.
func helper() int { return 2 }

// Appender is an interface some type satisfies; the root never calls
// AppendJSON directly.
type Appender interface {
	AppendJSON(dst []byte) []byte
}

// T satisfies Appender.
type T struct{}

// AppendJSON is exempt: an interface in the closure declares it.
func (T) AppendJSON(dst []byte) []byte { return dst }

// Identity is generic and used only through an instantiation: reached.
func Identity[E any](e E) E { return e }

// Oracle has no caller but is on the allowlist, which makes it a root.
func Oracle() int { return oracleHelper() }

// oracleHelper is reached through the allowlisted Oracle.
func oracleHelper() int { return 3 }
