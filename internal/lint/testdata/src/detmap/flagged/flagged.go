// Package sched (testdata): map iterations with order-dependent effects
// and no restoring sort — every case here must be flagged.
package sched // import "l15cache/internal/sched"

import "fmt"

// collectNoSort appends map keys to an outer slice and never sorts: the
// output order changes run to run.
func collectNoSort(ways map[int]int) []int {
	var out []int
	for w := range ways { // want "map iteration appends to a slice declared outside the loop"
		out = append(out, w)
	}
	return out
}

// printDirect writes output from inside the iteration.
func printDirect(stats map[string]uint64) {
	for name, v := range stats { // want "map iteration writes output via fmt.Printf"
		fmt.Printf("%s=%d\n", name, v)
	}
}

// closureCapture has the same bug inside a func literal.
func closureCapture(m map[string]int) func() []string {
	return func() []string {
		var keys []string
		for k := range m { // want "appends to a slice declared outside the loop"
			keys = append(keys, k)
		}
		return keys
	}
}
