// Package soc is puritycheck testdata for the approved patterns: injected
// generators, function-value callbacks (unknown callees are not impure),
// filesystem writes, and an env read no entry point can reach.
package soc // import "l15cache/internal/soc"

import (
	"math/rand"
	"os"
)

// SoC is the fake simulator root.
type SoC struct {
	rng  *rand.Rand
	hook func() int64
}

// Tick is the entry point; everything it reaches is deterministic.
func (s *SoC) Tick() {
	_ = s.rng.Intn(16)                    // method on an injected generator: approved
	_ = s.hook()                          // function value: unknown callee, not assumed impure
	_ = os.WriteFile("r.csv", nil, 0o644) // writes do not feed results back in
	_ = reduce(map[string]int{"a": 1})
}

// reduce iterates a map but only accumulates commutatively — order-neutral.
func reduce(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// debugMode reads the environment but no entry point reaches it: outside
// the simulation that is ordinary host I/O.
func debugMode() string {
	return os.Getenv("L15_DEBUG")
}
