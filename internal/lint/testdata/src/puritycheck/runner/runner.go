// Package runner (testdata): the harness exemption, at the real package's
// import path. Wall-clock reads are legal in internal/runner — elapsed
// time there feeds only the operator-facing progress/ETA gauges, never a
// simulated result — but the global math/rand generator stays banned even
// here.
package runner // import "l15cache/internal/runner"

import (
	"math/rand"
	"time"
)

// eta estimates remaining time from the wall clock: the one sanctioned use.
func eta(start time.Time, done, total int) time.Duration {
	elapsed := time.Since(start)
	if done == 0 {
		return 0
	}
	return elapsed / time.Duration(done) * time.Duration(total-done)
}

// stamp marks the start of a sweep for the progress gauge.
func stamp() time.Time {
	return time.Now()
}

// badShard still may not draw from the global generator; shards get
// injected seeds.
func badShard() int {
	return rand.Intn(64) // want "rand.Intn uses the global generator"
}
