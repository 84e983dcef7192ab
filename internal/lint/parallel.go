package lint

// Parallel execution of the per-package analyzer passes on the
// repository's own deterministic harness: each loaded package is one
// runner.Map shard, results are reduced in package index order, so the
// diagnostic stream is byte-identical to the serial RunModule at any
// worker count — the same contract every sweep in internal/experiments
// relies on. The interprocedural analyzers still run serially afterwards
// (they need the whole call graph), which Amdahl caps the speedup but
// keeps the parallel section embarrassingly independent.
//
// The same entry point measures per-analyzer wall time for the codecheck
// -timing summary. Reading the wall clock is banned in simulator packages
// (puritycheck) because simulated results must not depend on
// it; here it feeds an operator-facing diagnostic only, the same
// exemption the runner's ETA gauges enjoy — hence the explicit ignores.

import (
	"context"
	"time"

	"l15cache/internal/runner"
)

// AnalyzerTiming is the cumulative wall time one analyzer spent across
// every package (per-package analyzers) or in its single module pass.
// Parallel per-package passes overlap, so the durations sum CPU-side
// work, not elapsed time. The pseudo-entry "(call graph)" accounts the
// shared interprocedural graph construction.
type AnalyzerTiming struct {
	Analyzer string
	Duration time.Duration
}

// pkgUnit is one shard's result: the diagnostics of every per-package
// analyzer on one package, plus per-analyzer durations indexed like the
// analyzers slice.
type pkgUnit struct {
	Diags   []Diagnostic
	Elapsed []time.Duration
}

// RunModuleParallel is RunModule with the per-package passes fanned out
// over a bounded worker pool (workers <= 0 means runtime.NumCPU, the
// runner default) and per-analyzer wall-time accounting. The returned
// diagnostics are identical to RunModule's at any worker count.
func RunModuleParallel(ctx context.Context, pkgs []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, []AnalyzerTiming, error) {
	totals := make([]time.Duration, len(analyzers)+1) // +1: "(call graph)"
	var diags []Diagnostic

	if len(pkgs) > 0 {
		units, err := runner.Map(ctx, runner.Config{
			Name:    "codecheck",
			Options: runner.Options{Workers: workers},
		}, len(pkgs), func(_ context.Context, s runner.Shard) (pkgUnit, error) {
			u := pkgUnit{Elapsed: make([]time.Duration, len(analyzers))}
			for i, a := range analyzers {
				if a.Run == nil {
					continue
				}
				//lint:ignore puritycheck analyzer wall time is operator diagnostics (-timing), never a simulated result
				start := time.Now()
				pkgDiags, err := runPackagePass(pkgs[s.Index], a)
				//lint:ignore puritycheck analyzer wall time is operator diagnostics (-timing), never a simulated result
				u.Elapsed[i] = time.Since(start)
				if err != nil {
					return u, err
				}
				u.Diags = append(u.Diags, pkgDiags...)
			}
			return u, nil
		})
		if err != nil {
			return nil, nil, err
		}
		for _, u := range units {
			diags = append(diags, u.Diags...)
			for i, d := range u.Elapsed {
				totals[i] += d
			}
		}
	}

	nameIndex := map[string]int{}
	for i, a := range analyzers {
		nameIndex[a.Name] = i
	}
	timeOne := func(name string, run func() error) error {
		//lint:ignore puritycheck analyzer wall time is operator diagnostics (-timing), never a simulated result
		start := time.Now()
		err := run()
		//lint:ignore puritycheck analyzer wall time is operator diagnostics (-timing), never a simulated result
		elapsed := time.Since(start)
		if i, ok := nameIndex[name]; ok {
			totals[i] += elapsed
		} else {
			totals[len(analyzers)] += elapsed
		}
		return err
	}
	moduleDiags, err := runModulePasses(pkgs, analyzers, timeOne)
	if err != nil {
		return nil, nil, err
	}
	diags = append(diags, moduleDiags...)

	timings := make([]AnalyzerTiming, 0, len(analyzers)+1)
	for i, a := range analyzers {
		timings = append(timings, AnalyzerTiming{Analyzer: a.Name, Duration: totals[i]})
	}
	timings = append(timings, AnalyzerTiming{Analyzer: "(call graph)", Duration: totals[len(analyzers)]})
	return finishDiagnostics(pkgs, diags), timings, nil
}
