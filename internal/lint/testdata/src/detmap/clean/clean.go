// Package sched (testdata): map iterations that are order-neutral or
// restored to determinism by a sort — nothing here may be flagged.
package sched // import "l15cache/internal/sched"

import (
	"fmt"
	"sort"
)

// collectThenSort is the sanctioned idiom: gather, then sort.
func collectThenSort(ways map[int]int) []int {
	var out []int
	for w := range ways {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// sortThenPrint ranges the map only to collect; printing happens over the
// sorted slice.
func sortThenPrint(stats map[string]uint64) {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, stats[k])
	}
}

// reduce is order-neutral: a commutative fold with no slice or output.
func reduce(ways map[int]int) int {
	total := 0
	for _, n := range ways {
		total += n
	}
	return total
}

// localAppend appends to a slice declared inside the loop body, which is
// fresh every iteration and therefore order-independent.
func localAppend(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		var pair []int
		pair = append(pair, vs...)
		n += len(pair)
	}
	return n
}

// fillMap writing another map is order-neutral.
func fillMap(src map[int]int) map[int]int {
	dst := make(map[int]int, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
