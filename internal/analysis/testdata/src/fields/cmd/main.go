// Command cmd is the field-setting fixture's product code: every literal
// and every write in it counts.
package main

import (
	"flag"

	"vmcloud/internal/analysis/testdata/src/fields/lib"
)

func main() {
	w := &lib.Wrapper{Options: lib.Options{Keyed: 1}}
	w.Assigned = 2
	w.Options.Counted++
	flag.IntVar(&w.Pointed, "pointed", 0, "")
	_ = &w.ReadOnly
	w.Nested.Depth = 3
	_ = lib.Inner{}
	_ = lib.Pair{4, 5}
	_ = w
}
