// Package runner is sharedcapture testdata: every shard function below
// writes captured or package-level state (directly, through an element,
// by exposing an address, through a callee, or through a shared
// receiver), so results would depend on shard scheduling order.
package runner // import "l15cache/internal/runner"

// Shard mirrors runner.Shard.
type Shard struct{ Index int }

// Config mirrors runner.Config; the Fingerprint field is what Map-site
// discovery keys on, whether or not a call sets it.
type Config struct {
	Name        string
	Fingerprint []byte
}

// Map mirrors runner.Map's shape.
func Map(cfg Config, n int, fn func(Shard) (int, error)) []int {
	out := make([]int, n)
	for i := range out {
		v, _ := fn(Shard{Index: i})
		out[i] = v
	}
	return out
}

// Accumulate writes two captured locals from inside the closure — the
// classic reduction-by-shared-variable bug the runner's index-ordered
// reduction exists to prevent.
func Accumulate(xs []int) int {
	total := 0
	hits := 0
	Map(Config{Name: "acc"}, len(xs), func(s Shard) (int, error) {
		total += xs[s.Index] // want "runner.Map shard closure writes captured variable total"
		hits++               // want "runner.Map shard closure writes captured variable hits"
		return total, nil
	})
	return total + hits
}

// FixedSlot writes one fixed element of a captured slice: unlike the
// per-shard slot idiom, every shard touches the same storage.
func FixedSlot(xs []int) []int {
	out := make([]int, 1)
	Map(Config{Name: "fixed"}, len(xs), func(s Shard) (int, error) {
		out[0] = out[0] + xs[s.Index] // want "runner.Map shard closure writes captured variable out"
		return 0, nil
	})
	return out
}

// RangeWrite assigns a captured variable through a range clause.
func RangeWrite(xs []int) int {
	last := 0
	Map(Config{Name: "range"}, 1, func(s Shard) (int, error) {
		for _, last = range xs { // want "runner.Map shard closure writes captured variable last"
			_ = last
		}
		return last, nil
	})
	return last
}

// counter is the package-level state the global cases write.
var counter int

// DirectGlobal writes a package-level variable straight from the closure.
func DirectGlobal() {
	Map(Config{Name: "glob"}, 1, func(s Shard) (int, error) {
		counter = 7 // want "runner.Map shard closure writes package-level variable counter"
		return 0, nil
	})
}

// bump hides the package-level write one call below the closure, so the
// finding must arrive through fact propagation with the chain as
// evidence.
func bump() {
	counter++
}

// Transitive reaches the shared write only through a callee.
func Transitive(xs []int) int {
	Map(Config{Name: "trans"}, len(xs), func(s Shard) (int, error) {
		bump() // want "runner.Map shard closure reaches code that writes counter .package-level counter.: results would depend on shard scheduling order .path: runner.Map closure .* -> runner.bump"
		return 0, nil
	})
	return counter
}

// mutate is the callee the address-exposure case hands captured state to.
func mutate(c *Config) { c.Name = "x" }

// Exposes takes the address of a captured variable: license to write.
func Exposes(cfg Config) {
	Map(Config{Name: "addr"}, 1, func(s Shard) (int, error) {
		mutate(&cfg) // want "runner.Map shard closure exposes the address of captured variable cfg"
		return 0, nil
	})
}

// tally is the receiver the named-method case shares across shards.
type tally struct{ sum int }

// shard writes its receiver — one object, every shard.
func (t *tally) shard(s Shard) (int, error) {
	t.sum = t.sum + s.Index
	return t.sum, nil
}

// NamedReceiver passes a method value whose receiver write is flagged at
// the Map site.
func NamedReceiver(xs []int) {
	t := &tally{}
	Map(Config{Name: "recv"}, len(xs), t.shard) // want "runner.Map shard method ..runner.tally..shard writes its receiver"
}

// globalShard is a named shard function that writes package-level state.
func globalShard(s Shard) (int, error) {
	counter += s.Index
	return counter, nil
}

// NamedGlobal passes the named function; the seeded fact surfaces at the
// argument position.
func NamedGlobal() {
	Map(Config{Name: "namedglob"}, 2, globalShard) // want "runner.Map shard function runner.globalShard writes counter .package-level counter."
}
