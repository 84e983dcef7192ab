// Package flight is hotalloc testdata for the sanctioned idioms: the
// import path makes Emit a root, and every pattern here is one the
// analyzer must accept — reused scratch buffers, caller-owned self
// append, value composite literals passed by value, capture-free
// closures, and pointer locals that never escape.
package flight // import "l15cache/internal/flight"

// Event is a value payload: its literal lives on the stack.
type Event struct {
	Seq  uint64
	Kind int
}

// Recorder mirrors the real ring recorder's shape.
type Recorder struct {
	buf     []Event
	next    int
	seq     uint64
	scratch []int
}

// Emit is the root: self-append into a receiver field is the scratch
// idiom, and the Event value literal at the call sites never boxes.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.Seq = r.seq
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.reuse()
	r.local()
}

// reuse truncates and refills caller-owned scratch: allowed.
func (r *Recorder) reuse() {
	r.scratch = r.scratch[:0]
	for i := 0; i < 4; i++ {
		r.scratch = append(r.scratch, i)
	}
}

// local keeps a pointer literal on the stack: it is only dereferenced,
// never stored or passed, so the escape heuristic stays quiet.
func (r *Recorder) local() {
	e := &Event{Kind: 1}
	e.Seq = r.seq
	r.next = int(e.Seq) % 8
}

// Tick exercises a capture-free closure (a static function, no
// environment) and a value literal passed by value.
func (r *Recorder) Tick() {
	f := func(a, b int) int { return a + b }
	r.next = f(r.next, 1)
	r.Emit(Event{Kind: 2})
}

// growShared appends into a parameter — caller-owned storage, the
// grow-scratch helper idiom.
func growShared(s []int, n int) []int {
	for i := 0; i < n; i++ {
		s = append(s, i)
	}
	return s
}

// Step keeps the helper reachable from a root.
func (r *Recorder) Step() {
	r.scratch = growShared(r.scratch, 2)
}
