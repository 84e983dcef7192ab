// Package report (testdata): not a simulator package — no policy-table
// row puts its import path in scope — so detmap must stay silent even on
// the pattern it flags elsewhere.
package report

func collectNoSort(ways map[int]int) []int {
	var out []int
	for w := range ways {
		out = append(out, w)
	}
	return out
}
