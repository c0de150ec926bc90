// Command cmd is the option-setting fixture's product code: every write
// in it counts.
package main

import "vmcloud/internal/analysis/testdata/src/options/lib"

func main() {
	w := &lib.Wrapper{Options: lib.Options{Keyed: 1}}
	w.Assigned = 2
	w.Options.Counted++
	_ = w
}
