// Package telemetry (testdata): the telemetry exemption, at the real
// package's import path. The sampler and runtime collector timestamp operator-facing observations of the
// simulation — wall-clock reads are legal here for that pacing and
// stamping, but the global math/rand generator stays banned even here.
package telemetry // import "l15cache/internal/telemetry"

import (
	"math/rand"
	"time"
)

// sampleLoop paces periodic snapshot captures off a wall-clock ticker:
// the sanctioned use. No captured value ever feeds a simulated result.
func sampleLoop(interval time.Duration, capture func(at time.Time)) *time.Ticker {
	tick := time.NewTicker(interval)
	go func() {
		for range tick.C {
			capture(time.Now())
		}
	}()
	return tick
}

// elapsed stamps a sample with its offset from the sampler epoch, for the
// operator-facing time series.
func elapsed(epoch time.Time) time.Duration {
	return time.Since(epoch)
}

// badScrapeJitter still may not draw from the global generator; any
// randomness in the telemetry layer must come from an injected seed.
func badScrapeJitter() int {
	return rand.Intn(8) // want "rand.Intn uses the global generator"
}
