// Command cmd is the declaration-reachability fixture's root: every use
// in it counts.
package main

import "vmcloud/internal/analysis/testdata/src/reach/lib"

func main() {
	var a lib.Appender = lib.T{}
	_ = a
	_ = lib.Used() + lib.Identity(4)
}
