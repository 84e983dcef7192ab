// Package l15 is hotalloc testdata: the import path puts the hot-family
// roots in scope, and every allocation hides at least one helper call
// below a root so the chain evidence matters. The deliberate allocation
// in sduIdle's path is the acceptance case from ISSUE 7.
package l15 // import "l15cache/internal/l15"

import "fmt"

// L15 is the fake SDU.
type L15 struct {
	ticks   uint64
	demand  []int
	scratch []int
	log     []string
	hook    func()
}

// sduIdle is a hot-path root; the map allocation hides one call down.
func (l *L15) sduIdle() bool {
	return l.checkIdle()
}

func (l *L15) checkIdle() bool {
	seen := make(map[int]bool) // want "heap allocation on the hot path from ..l15.L15..sduIdle: make ...l15.L15..sduIdle -> ..l15.L15..checkIdle"
	for _, d := range l.demand {
		seen[d] = true
	}
	return len(seen) == 0
}

// Tick is a root; its helpers exercise the other allocation classes.
func (l *L15) Tick() {
	l.ticks++
	l.logEvent("tick")
	l.rebuild()
	l.publish()
	l.capture()
}

// logEvent concatenates strings and formats — both allocate.
func (l *L15) logEvent(kind string) {
	msg := kind + ":" + "sdu"              // want "heap allocation on the hot path from ..l15.L15..Tick: string concatenation"
	_ = fmt.Sprintf("%s@%d", msg, l.ticks) // want "heap allocation on the hot path from ..l15.L15..Tick: fmt.Sprintf .interface boxing . formatting."
}

// rebuild appends into a slice it freshly allocates every call — the
// reaching-definitions pass distinguishes this from reused scratch.
func (l *L15) rebuild() {
	buf := make([]int, 0, 4) // want "heap allocation on the hot path from ..l15.L15..Tick: make"
	for _, d := range l.demand {
		buf = append(buf, d) // want "append into a slice freshly allocated each call"
	}
	l.scratch = l.scratch[:0]
}

// node escapes through the return — the composite literal is heap.
type node struct{ id int }

func (l *L15) publish() *node {
	n := &node{id: int(l.ticks)} // want "heap allocation on the hot path from ..l15.L15..Tick: escaping .composite literal"
	return n
}

// capture builds a closure over a local — its environment allocates.
func (l *L15) capture() {
	count := 0
	l.hook = func() { // want "heap allocation on the hot path from ..l15.L15..Tick: closure captures enclosing variables"
		count++
	}
}

// Step is a root exercising non-self append and interface boxing.
func (l *L15) Step() {
	l.merge()
	l.box()
}

func (l *L15) merge() {
	l.log = append(l.scratchNames(), "x") // want "append copies into a new backing array"
}

func (l *L15) scratchNames() []string { return nil }

// boxer is a local interface to box into.
type boxer interface{ box() }

type plain struct{}

func (plain) box() {}

func (l *L15) box() {
	v := plain{}
	_ = boxer(v) // want "conversion boxes a concrete value into an interface"
}

// coldPath allocates freely but is reachable from no root: no findings.
func (l *L15) coldPath() []string {
	out := make([]string, 0, len(l.log))
	for _, s := range l.log {
		out = append(out, s+"!")
	}
	return out
}
