package experiments

import (
	"l15cache/internal/memo"
	"l15cache/internal/rtsim"
	"l15cache/internal/workload"
)

// The fingerprint builders below compose each sweep's memo canonical
// encoding (DESIGN.md §12) from the owner packages' AppendFingerprint
// methods. Each runner.Map call passes the matching fingerprint, so
// -memo/-memo-dir work on every sweep, and two rules decide what is
// encoded:
//
//   - in: everything the shard function's result depends on besides the
//     shard identity — model parameters, workload descriptors, instance
//     counts;
//   - out: everything that cannot change a result — trial counts (each
//     shard is keyed individually), root seeds (folded into the shard
//     seed by runner.Seed) and the runner.Options operational knobs.
//
// Domains separate trial functions, not call sites: the ζ and κ
// ablations share "prop-makespan" because they compute the same function
// of (params, ζ, κ), so their caches interoperate wherever the sweeps
// cross; the case study and side-effects analysis stay apart because one
// simulates four systems and the other only the proposed one.

// makespanFingerprint covers runOneDAG: one synthetic task per shard,
// simulated on Prop/CMP|L1/CMP|L2 for cfg.Instances instances.
func makespanFingerprint(cfg MakespanConfig, p workload.SynthParams) []byte {
	e := memo.NewEncoder("makespan/point")
	e.I64("instances", int64(cfg.Instances))
	e.I64("cores", int64(cfg.Cores))
	e.I64("zeta", int64(cfg.Zeta))
	e.I64("way_bytes", cfg.WayBytes)
	p.AppendFingerprint(e)
	return e.Fingerprint()
}

// propMakespanFingerprint covers meanPropMakespan's shards: one task,
// proposed system only, at an explicit (ζ, κ) point.
func propMakespanFingerprint(cfg MakespanConfig, zeta int, wayBytes int64) []byte {
	e := memo.NewEncoder("prop-makespan")
	e.I64("cores", int64(cfg.Cores))
	e.I64("zeta", int64(zeta))
	e.I64("way_bytes", wayBytes)
	cfg.Base.AppendFingerprint(e)
	return e.Fingerprint()
}

// prioAblationFingerprint covers the three-variant priority ablation.
func prioAblationFingerprint(cfg MakespanConfig) []byte {
	e := memo.NewEncoder("ablation/prio")
	e.I64("cores", int64(cfg.Cores))
	e.I64("zeta", int64(cfg.Zeta))
	e.I64("way_bytes", cfg.WayBytes)
	cfg.Base.AppendFingerprint(e)
	return e.Fingerprint()
}

// taskSetTrialFingerprint covers the periodic-simulator sweeps (case
// study, side effects, SDU-delay ablation): a task set drawn from set,
// simulated under rt. Returns nil — disabling memoization for the call —
// when rt is not memoizable (it carries a flight recorder).
func taskSetTrialFingerprint(domain string, set workload.TaskSetParams, rt rtsim.Config) []byte {
	e := memo.NewEncoder(domain)
	if !rt.AppendFingerprint(e) {
		return nil
	}
	set.AppendFingerprint(e)
	return e.Fingerprint()
}

// acceptanceFingerprint covers the §4.2 acceptance-ratio trials.
func acceptanceFingerprint(cfg AcceptanceConfig, p workload.SynthParams) []byte {
	e := memo.NewEncoder("acceptance")
	e.I64("cores", int64(cfg.Cores))
	e.I64("zeta", int64(cfg.Zeta))
	e.I64("way_bytes", cfg.WayBytes)
	p.AppendFingerprint(e)
	return e.Fingerprint()
}
