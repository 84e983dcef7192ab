// Package soc is puritycheck testdata: the import path makes Tick an entry
// point, and the hazards hide behind helper calls, so the reports carry the
// call chain from the entry point.
package soc // import "l15cache/internal/soc"

import (
	"math/rand"
	"os"
	"time"
)

// SoC is the fake simulator root.
type SoC struct {
	log    []string
	counts map[string]int
}

// Tick is the entry point the analyzer roots the closure at.
func (s *SoC) Tick() {
	s.stepOnce()
	s.tally()
	runAll(&widget{})
}

func (s *SoC) stepOnce() {
	_ = stamp()
	_ = jitter()
	_ = readCfg()
}

// stamp hides the wall-clock read two calls below the entry point.
func stamp() int64 {
	return time.Now().UnixNano() // want "impure path to time.Now .wall-clock. from entry point ..soc.SoC..Tick: ..soc.SoC..Tick -> ..soc.SoC..stepOnce -> soc.stamp -> time.Now"
}

// jitter draws from the global generator instead of an injected one.
func jitter() int64 {
	return rand.Int63() // want "impure path to rand.Int63 .global-rand."
}

// readCfg consults the host environment.
func readCfg() string {
	return os.Getenv("L15_MODE") // want "impure path to os.Getenv .fs-read."
}

// tally iterates a map with an order-dependent effect and no restoring sort.
func (s *SoC) tally() {
	for k := range s.counts { // want "impure path to map iteration that appends"
		s.log = append(s.log, k)
	}
}

// stepper is dispatched through an interface, exercising the CHA edges.
type stepper interface {
	advance() float64
}

type widget struct{}

func (widget) advance() float64 {
	return rand.Float64() // want "impure path to rand.Float64 .global-rand."
}

func runAll(st stepper) {
	_ = st.advance()
}

// debugStamp is impure but unreachable from any entry point: the direct
// wall-clock rule still reports it, without a chain.
func debugStamp() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}
