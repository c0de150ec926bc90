// Package hp is the hotpath analyzer's fixture: each banned construct
// appears once in a marked function (flagged), once in an unmarked one
// (ignored), and once behind the //mvlint:allow escape hatch.
package hp

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

var mu sync.Mutex

//mvlint:hotpath
func closures(xs []int) int {
	f := func(a int) int { return a + 1 } // want `closure allocated in hotpath function closures`
	return f(xs[0])
}

//mvlint:hotpath
func deferred() {
	mu.Lock()
	defer mu.Unlock() // want `defer in hotpath function deferred`
}

//mvlint:hotpath
func formatted(n int) error {
	if n < 0 {
		return fmt.Errorf("negative: %d", n) // want `fmt\.Errorf in hotpath function formatted allocates on every call`
	}
	return nil
}

//mvlint:hotpath
func concat(a, b string) string {
	return a + b // want `string concatenation in hotpath function concat allocates`
}

//mvlint:hotpath
func concatAssign(parts []string) string {
	s := ""
	for _, p := range parts {
		s += p // want `string concatenation in hotpath function concatAssign allocates`
	}
	return s
}

//mvlint:hotpath
func clean(dst []byte, a, b string) []byte {
	dst = append(dst[:0], a...) // pooled-buffer key building is the sanctioned form
	dst = append(dst, b...)
	return dst
}

const decimals = 2

//mvlint:hotpath
func fixedFloat(dst []byte, f float64, prec int) ([]byte, string) {
	dst = strconv.AppendFloat(dst, f, 'f', 3, 64)         // want `strconv\.AppendFloat with a fixed precision in hotpath function fixedFloat takes strconv's multiprecision path; use jsonenc\.AppendFixed`
	s := strconv.FormatFloat(f, 'f', decimals, 64)        // want `strconv\.FormatFloat with a fixed precision in hotpath function fixedFloat`
	dst = strconv.AppendFloat(dst, f, 'f', -1, 64)        // shortest round-trip form: strconv's fast path
	dst = strconv.AppendFloat(dst, f, 'e', 3, 64)         // 'e' with a precision has a fast path too
	dst = strconv.AppendFloat(dst, f, 'f', prec, 64)      // not a constant: the fall-through of a fast formatter looks like this
	dst = strconv.AppendFloat(dst, f, 'f', 1, 64)         //mvlint:allow hotpath -- fixture: proves the escape hatch suppresses the finding
	return strconv.AppendInt(dst, int64(decimals), 10), s // other strconv calls are fine
}

// cold is unmarked: the same constructs are fine off the hot path.
func cold(a, b string) string {
	mu.Lock()
	defer mu.Unlock()
	return fmt.Sprintf("%s%s", a, b)
}

//mvlint:hotpath
func allowedDefer() {
	mu.Lock()
	defer mu.Unlock() //mvlint:allow hotpath -- fixture: proves the escape hatch suppresses the finding
}

// instrument mirrors internal/obs: a telemetry series resolved at
// registration time, recorded with plain atomic ops.
type instrument struct {
	n   atomic.Int64
	sum atomic.Int64
}

// record is the sanctioned telemetry idiom for marked functions —
// atomic adds on a pre-resolved series, no labels, no maps, no
// formatting. This fixture pins that the analyzer accepts it unchanged.
//
//mvlint:hotpath
func record(ins *instrument, d int64) {
	if d < 0 {
		d = 0
	}
	ins.n.Add(1)
	ins.sum.Add(d)
}
