// Package det is the determinism analyzer's fixture: each construct
// the contract bans appears once flagged, once in its sanctioned form,
// and once behind the //mvlint:allow escape hatch.
package det

import (
	"math/rand"
	"time"
)

func clock() int64 {
	t := time.Now() // want `time\.Now makes solver output depend on the wall clock`
	return t.Unix()
}

func globalRand() int {
	return rand.Intn(10) // want `rand\.Intn draws from the unseeded global source`
}

func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // seeded constructors are the sanctioned form
	return r.Intn(10)                   // generator methods never touch the global source
}

func mapRangeAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order is random, and this loop feeds it into a call to append`
		out = append(out, k)
	}
	return out
}

func mapRangeSum(m map[string]int) int {
	total := 0
	for _, v := range m { // commutative aggregation cannot observe order
		total += v
	}
	return total
}

func mapRangePrune(m map[string]int) {
	for k, v := range m { // delete/len are order-free builtins
		if v == 0 && len(m) > 1 {
			delete(m, k)
		}
	}
}

func mapRangeReturn(m map[string]int) string {
	for k := range m { // want `map iteration order is random, and this loop feeds it into an order-dependent early return`
		return k
	}
	return ""
}

func allowedClock() time.Time {
	//mvlint:allow determinism -- fixture: proves the escape hatch suppresses the finding
	return time.Now()
}

func fusedOperand(x, y, z float64) float64 {
	return x*y + z // want `float product reaches a \+ unrounded`
}

func fusedNegatedOperand(x, y, z float64) float64 {
	return z - (-x * y) // want `float product reaches a - unrounded`
}

func fusedAssign(x, y, z float64) float64 {
	z += x * y // want `float product reaches a \+ unrounded`
	z -= 2 * y // want `float product reaches a - unrounded`
	return z
}

func fusedLocal(x, y, z float64) float64 {
	p := x * y
	var q = y * z
	return z + p - q // want `p holds an unrounded float product and reaches a \+` `q holds an unrounded float product and reaches a -`
}

type hours float64

func fusedNamed(x, y hours) hours {
	return x*y + 1 // want `float product reaches a \+ unrounded`
}

func rounded(x, y, z float64) float64 {
	p := float64(x * y) // an explicit conversion rounds the product: never fused
	z += float64(x * y)
	z -= float64(2 * y)
	return float64(x*y) + z + p
}

func notFusable(a, b, c int, x, y float64) (int, float64) {
	const k = 2.5 * 4               // folded at compile time
	return a*b + c, x * y / (x + k) // integer products never fuse; a product feeding a divide does not fuse
}

func goroutine(solve func(int), jobs int) {
	done := make(chan struct{})
	go func() { // want `a go statement makes solver work depend on scheduling`
		solve(0)
		close(done)
	}()
	for i := 1; i < jobs; i++ { // the sanctioned form: in order, on the caller's goroutine
		solve(i)
	}
	<-done
}

func allowedFused(x, y, z float64) float64 {
	//mvlint:allow determinism -- fixture: proves the escape hatch suppresses the finding
	return x*y + z
}
