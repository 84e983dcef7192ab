// Package runner is fingerprintcomplete testdata that must produce no
// diagnostics: every Map site either covers the compute path's reads
// completely (by encoding, by guard reads, by whole-struct encoding or
// through a builder helper method) or has memoization deliberately off.
package runner // import "l15cache/internal/runner"

// Shard mirrors runner.Shard.
type Shard struct{ Index int }

// Options mirrors runner.Options.
type Options struct{ Workers int }

// Config mirrors runner.Config.
type Config struct {
	Name        string
	Fingerprint []byte
	Options     Options
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

// Encoder mirrors memo.Encoder's field-appending surface.
type Encoder struct{ b []byte }

// NewEncoder mirrors memo.NewEncoder.
func NewEncoder() *Encoder { return &Encoder{} }

// I64 appends a signed integer field.
func (e *Encoder) I64(name string, v int64) { e.b = append(e.b, name...) }

// U64 appends an unsigned integer field.
func (e *Encoder) U64(name string, v uint64) { e.b = append(e.b, name...) }

// Task appends a whole struct, covering its entire type.
func (e *Encoder) Task(name string, p Params) { e.b = append(e.b, name...) }

// Sum returns the accumulated key bytes.
func (e *Encoder) Sum() []byte { return e.b }

// Trial is the observed input struct.
type Trial struct {
	Cores int
	Way   uint64
	Debug bool
}

// fingerprintFull encodes Cores and Way and reads Debug as a guard — the
// rtsim Recorder idiom: a field only read to decide whether memoization
// applies counts as observed without being encoded.
func fingerprintFull(c Trial) []byte {
	if c.Debug {
		return nil
	}
	e := NewEncoder()
	e.I64("cores", int64(c.Cores))
	e.U64("way", c.Way)
	return e.Sum()
}

// Covered reads exactly what the builder observes.
func Covered(c Trial) []int {
	return Map(Config{Name: "covered", Fingerprint: fingerprintFull(c)}, 2, func(s Shard) (int, error) {
		if c.Debug {
			return 0, nil
		}
		return c.Cores * int(c.Way), nil
	})
}

// Params is a second observed struct, encoded whole.
type Params struct {
	Period int64
	Jitter int64
}

// fingerprintWhole hands the struct to the encoder in its entirety.
func fingerprintWhole(p Params) []byte {
	e := NewEncoder()
	e.Task("params", p)
	return e.Sum()
}

// WholeType may read any Params field: the whole type is covered.
func WholeType(p Params) []int {
	return Map(Config{Name: "whole", Fingerprint: fingerprintWhole(p)}, 2, func(s Shard) (int, error) {
		return int(p.Period + p.Jitter), nil
	})
}

// appendTo is the AppendFingerprint idiom: the builder delegates the
// field encoding to a method of the observed type.
func (p Params) appendTo(e *Encoder) {
	e.I64("period", p.Period)
	e.I64("jitter", p.Jitter)
}

// fingerprintVia encodes only through the helper method.
func fingerprintVia(p Params) []byte {
	e := NewEncoder()
	p.appendTo(e)
	return e.Sum()
}

// ViaMethod's reads are covered by the builder's transitive encodes.
func ViaMethod(p Params) []int {
	return Map(Config{Name: "via", Fingerprint: fingerprintVia(p)}, 2, func(s Shard) (int, error) {
		return int(p.Period) + int(p.Jitter), nil
	})
}

// MemoOff omits the Fingerprint key: memoization is deliberately
// disabled, so there is no contract to prove.
func MemoOff(c Trial) []int {
	return Map(Config{Name: "off"}, 2, func(s Shard) (int, error) {
		return c.Cores, nil
	})
}

// Precomputed passes fingerprint bytes that are not a builder call; with
// no builder body to diff against, the site is skipped.
func Precomputed(c Trial) []int {
	fp := []byte("static-key")
	return Map(Config{Name: "pre", Fingerprint: fp}, 2, func(s Shard) (int, error) {
		return c.Cores, nil
	})
}
