// Package sim (testdata): //lint:ignore directive handling — a justified
// ignore suppresses, a bare one is itself a finding, and an unknown
// analyzer name is reported.
package sim

import "math/rand"

// suppressedSameLine carries a justified ignore on the flagged line.
func suppressedSameLine(n int) int {
	return rand.Intn(n) //lint:ignore puritycheck testdata exercises same-line suppression
}

// suppressedLineAbove carries the ignore on the preceding line.
func suppressedLineAbove(n int) int {
	//lint:ignore puritycheck testdata exercises line-above suppression
	return rand.Intn(n)
}

// unjustified has no justification: the directive itself is the finding
// and the underlying diagnostic survives.
func unjustified(n int) int {
	return rand.Intn(n) //lint:ignore puritycheck
	// want "needs an analyzer name and a justification" "rand.Intn uses the global generator"
}

// wrongAnalyzer suppresses a different analyzer, so the puritycheck finding
// survives alongside nothing else.
func wrongAnalyzer(n int) int {
	return rand.Intn(n) //lint:ignore detmap suppressing the wrong analyzer does not help
	// want "rand.Intn uses the global generator"
}

// unknownName names an analyzer that does not exist.
func unknownName(n int) int {
	return rand.Intn(n) //lint:ignore nosuchcheck this analyzer does not exist
	// want "names unknown analyzer" "rand.Intn uses the global generator"
}
