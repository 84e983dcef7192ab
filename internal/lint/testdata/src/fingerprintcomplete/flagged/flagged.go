// Package runner is fingerprintcomplete testdata. It declares the real
// internal/runner import path so the local Map mirror resolves exactly
// like the real entry point, and the local Encoder mirrors the
// internal/memo field methods (matched by type name), so testdata stays
// self-contained. Every Map site here passes a
// fingerprint builder that misses at least one field the shard function
// reads, or encodes one it never reads.
package runner // import "l15cache/internal/runner"

// Shard mirrors runner.Shard.
type Shard struct{ Index int }

// Options mirrors runner.Options.
type Options struct{ Workers int }

// Config mirrors runner.Config: the Fingerprint field is what the
// analyzer keys Map-site discovery on.
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

// Str appends a string field.
func (e *Encoder) Str(name, v string) { e.b = append(e.b, name...) }

// I64 appends a signed integer field.
func (e *Encoder) I64(name string, v int64) { e.b = append(e.b, name...) }

// U64 appends an unsigned integer field.
func (e *Encoder) U64(name string, v uint64) { e.b = append(e.b, name...) }

// Sum returns the accumulated key bytes.
func (e *Encoder) Sum() []byte { return e.b }

// Trial is the observed input struct every case below samples from.
type Trial struct {
	Cores int
	Zeta  float64
	Way   uint64
	Label string
}

// fingerprintPartial covers Cores, Way and Label — but not Zeta.
func fingerprintPartial(c Trial) []byte {
	e := NewEncoder()
	e.I64("cores", int64(c.Cores))
	e.U64("way", c.Way)
	e.Str("label", c.Label) // want "fingerprint builder runner.fingerprintPartial encodes runner.Trial.Label but the trial compute path never reads it"
	return e.Sum()
}

// DirectRead reads Zeta directly in the closure while the builder never
// observes it; the builder's Label key is also dead weight here.
func DirectRead(c Trial) []int {
	return Map(Config{Name: "direct", Fingerprint: fingerprintPartial(c)}, 4, func(s Shard) (int, error) {
		cost := c.Cores * int(c.Way)
		if c.Zeta > 0.5 { // want "trial compute path reads runner.Trial.Zeta but fingerprint builder runner.fingerprintPartial never observes it"
			cost++
		}
		return cost, nil
	})
}

// fingerprintCores covers Cores only.
func fingerprintCores(c Trial) []byte {
	e := NewEncoder()
	e.I64("cores", int64(c.Cores))
	return e.Sum()
}

// zetaCost hides the uncovered read one call below the closure, so the
// finding must carry the root-to-read chain.
func zetaCost(c Trial) float64 {
	return c.Zeta // want "trial compute path reads runner.Trial.Zeta but fingerprint builder runner.fingerprintCores never observes it: a memo hit could replay a result computed under a different Zeta .path: runner.Map closure .* -> runner.zetaCost"
}

// HelperRead reaches the uncovered field only transitively.
func HelperRead(c Trial) []int {
	return Map(Config{Name: "helper", Fingerprint: fingerprintCores(c)}, 2, func(s Shard) (int, error) {
		if zetaCost(c) > 1 {
			return c.Cores * 2, nil
		}
		return c.Cores, nil
	})
}

// fingerprintWay covers Way only.
func fingerprintWay(c Trial) []byte {
	e := NewEncoder()
	e.U64("way", c.Way)
	return e.Sum()
}

// VarConfig assigns the fingerprint through a variable's field, the
// `cfg.Fingerprint = builder(...)` pattern the field-level reaching-defs
// pass resolves.
func VarConfig(c Trial) []int {
	var rcfg Config
	rcfg.Name = "var"
	rcfg.Fingerprint = fingerprintWay(c)
	return Map(rcfg, 2, func(s Shard) (int, error) {
		if c.Cores > 1 { // want "trial compute path reads runner.Trial.Cores but fingerprint builder runner.fingerprintWay never observes it"
			return int(c.Way) * 2, nil
		}
		return int(c.Way), nil
	})
}

// fingerprintLabelOnly covers Label only.
func fingerprintLabelOnly(c Trial) []byte {
	e := NewEncoder()
	e.Str("label", c.Label) // want "fingerprint builder runner.fingerprintLabelOnly encodes runner.Trial.Label but the trial compute path never reads it"
	return e.Sum()
}

// fixed is the shared input a named shard function samples.
var fixed = Trial{Cores: 2}

// shardCost is a named shard function: both of its Trial reads are
// invisible to fingerprintLabelOnly.
func shardCost(s Shard) (int, error) {
	if fixed.Zeta > 0 { // want "trial compute path reads runner.Trial.Zeta but fingerprint builder runner.fingerprintLabelOnly never observes it"
		return 2, nil
	}
	return fixed.Cores, nil // want "trial compute path reads runner.Trial.Cores but fingerprint builder runner.fingerprintLabelOnly never observes it"
}

// NamedShard passes a named function instead of a closure.
func NamedShard(c Trial) []int {
	return Map(Config{Name: "named", Fingerprint: fingerprintLabelOnly(c)}, 2, shardCost)
}
