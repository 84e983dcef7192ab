// Package telemetry is the service-grade observability layer on top of
// internal/metrics: a stdlib-only Prometheus text-exposition encoder (and
// strict parser) for registry snapshots, a wall-clock time-series sampler
// feeding a bounded ring, a runtime/metrics collector for the Go runtime's
// own health, and the zero-dependency live dashboard the flight server
// mounts at /dashboard. It is the substrate the future simulation service
// (`cmd/l15d`, ROADMAP) will expose; today the cmd tools surface it through
// `-telemetry` and `l15sim -http` (DESIGN.md §13).
//
// The layer's one invariant is that it must never perturb determinism:
//
//   - the deterministic registry (metrics.Default) stays the only source of
//     the archived -metrics artifacts, and telemetry only *reads* it
//     (Snapshot is a pure read; collectors store derived values);
//   - every wall-clock-coupled series — trial latency, worker occupancy,
//     heap, GC pauses, SSE client churn — lives in the separate Runtime
//     registry below, which is merged into the *live* views (/metrics
//     exposition, sampler ring, dashboard) but never written into an
//     archived artifact;
//   - the sampler's clock reads are an operator-facing carve-out exactly
//     like internal/flight's SSE pacing, and the puritycheck analyzer's
//     policy table encodes the boundary.
//
// A sweep therefore produces byte-identical experiment artifacts with
// telemetry on or off — the property the telemetry-determinism CI job
// compares end to end.
package telemetry

import (
	"l15cache/internal/metrics"
)

// Runtime is the operational registry: the home of every series that is a
// function of the host rather than the simulation — Go runtime health
// (RegisterRuntimeCollector), the runner's trial-latency and occupancy
// summaries, the flight server's SSE client counters. It is merged into
// the live /metrics exposition and the sampler ring, and deliberately
// excluded from metrics.WriteFiles so archived artifacts stay
// deterministic.
var Runtime = metrics.NewRegistry()

func init() { RegisterRuntimeCollector(Runtime) }

// Merge overlays b on a: the union of both snapshots, with b winning name
// collisions. The intended operands — the deterministic registry and the
// operational Runtime registry — use disjoint name prefixes, so in
// practice nothing collides. The Build header comes from a (they are
// identical per binary anyway).
func Merge(a, b metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{
		Build:      a.Build,
		Counters:   make(map[string]uint64, len(a.Counters)+len(b.Counters)),
		Gauges:     make(map[string]float64, len(a.Gauges)+len(b.Gauges)),
		Histograms: make(map[string]metrics.HistogramSnapshot, len(a.Histograms)+len(b.Histograms)),
	}
	for _, s := range []metrics.Snapshot{a, b} {
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			out.Histograms[k] = v
		}
	}
	return out
}

// MergedSnapshot captures metrics.Default overlaid with Runtime — the
// merged live view behind the /metrics endpoint, the sampler and the
// dashboard.
func MergedSnapshot() metrics.Snapshot {
	return Merge(metrics.Default.Snapshot(), Runtime.Snapshot())
}
