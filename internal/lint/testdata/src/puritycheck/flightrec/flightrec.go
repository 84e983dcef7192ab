// Package flight is puritycheck testdata for the flight-recorder
// carve-out, at the real package's import path. Recorded events are
// cycle-stamped sim-time, so the wall clock is legal here to pace the
// live /events SSE polling loop, directly or behind a helper an entry
// point reaches — but global-rand and fs-read hazards still report. Run
// makes this package's functions entry points.
package flight // import "l15cache/internal/flight"

import (
	"math/rand"
	"os"
	"time"
)

// Server is the fake live-inspection endpoint.
type Server struct{}

// Run is an entry-point-named method so the closure roots here.
func (s *Server) Run() {
	_ = pollDelay()
	_ = jitter()
	_ = readEnv()
}

// pollDelay reads the wall clock behind a helper: exempt in this package.
func pollDelay() int64 {
	return time.Now().UnixNano()
}

// jitter draws from the global generator — still banned.
func jitter() int64 {
	return rand.Int63() // want "impure path to rand.Int63 .global-rand."
}

// readEnv consults the host environment — still banned.
func readEnv() string {
	return os.Getenv("FLIGHT_MODE") // want "impure path to os.Getenv .fs-read."
}

// pollEvents paces the SSE stream off a wall-clock ticker: the sanctioned
// use. The tick never reaches a recorded event's Time field.
func pollEvents(interval time.Duration, send func()) *time.Ticker {
	tick := time.NewTicker(interval)
	go func() {
		for range tick.C {
			send()
		}
	}()
	return tick
}

// waited measures how long a client connection has been open, for the
// operator-facing stream log.
func waited(since time.Time) time.Duration {
	return time.Since(since)
}

// badSampleJitter still may not draw from the global generator, even
// where no entry point reaches it; any randomness in the recorder must
// come from an injected seed.
func badSampleJitter() int {
	return rand.Intn(8) // want "rand.Intn uses the global generator"
}
