// Package runner is sharedcapture testdata that must produce no
// diagnostics: shard-local state, per-shard slots (including nested
// indexing), read-only captures, pure named shard functions, read-only
// receivers and receiver rebinding are all within the contract.
package runner // import "l15cache/internal/runner"

// Shard mirrors runner.Shard.
type Shard struct{ Index int }

// Config mirrors runner.Config.
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

// double writes only its own locals; calling it from a shard is fine.
func double(v int) int {
	w := v * 2
	return w
}

// Clean exercises every sanctioned shape in one closure: shard-local
// accumulation, per-shard slots (flat and nested), reads of captured
// configuration and a pure callee.
func Clean(xs []int, cfg Config) []int {
	res := make([]int, len(xs))
	grid := make([][]int, len(xs))
	Map(Config{Name: "clean"}, len(xs), func(s Shard) (int, error) {
		local := 0
		local += xs[s.Index]
		local = double(local)
		res[s.Index] = local
		grid[s.Index] = []int{local}
		grid[s.Index][0] = local + len(cfg.Name)
		return local, nil
	})
	return res
}

// pureShard is a named shard function with no shared writes.
func pureShard(s Shard) (int, error) {
	v := s.Index * 2
	return v, nil
}

// NamedPure passes the pure named function.
func NamedPure() {
	Map(Config{Name: "pure"}, 3, pureShard)
}

// scaler is a receiver the method cases only read or rebind.
type scaler struct{ k int }

// shard reads its receiver without writing it.
func (sc *scaler) shard(s Shard) (int, error) {
	return sc.k * s.Index, nil
}

// MethodReadOnly passes a read-only method value.
func MethodReadOnly() {
	sc := &scaler{k: 3}
	Map(Config{Name: "ro"}, 3, sc.shard)
}

// reset rebinds the local receiver variable, which touches nothing
// shared — the pointer copy is per call.
func (sc *scaler) reset(s Shard) (int, error) {
	sc = &scaler{k: s.Index}
	return sc.k, nil
}

// MethodRebind passes the rebinding method value.
func MethodRebind() {
	Map(Config{Name: "rebind"}, 2, (&scaler{}).reset)
}
