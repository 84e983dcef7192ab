// Command sideeffects regenerates Fig. 8(c): the §5.3 side-effects analysis
// of the proposed system under high demand — the L1.5 way utilisation and
// the mis-configuration ratio φ for 8/16-core SoCs at 80% and 100% target
// utilisation.
//
// Usage:
//
//	sideeffects [-trials N] [-seed S] [-workers N] [-checkpoint file.json]
//	            [-memo] [-memo-dir DIR]
//
// Trials fan out on the internal/runner pool: -workers caps the
// concurrency (0 = NumCPU) without changing any result, -checkpoint makes
// an interrupted run (Ctrl-C) resumable at trial granularity, and
// -memo/-memo-dir enable the content-addressed trial result cache
// (internal/memo): a -memo-dir shared between runs serves every
// previously computed trial from disk, byte-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"l15cache/internal/cli"
	"l15cache/internal/experiments"
	"l15cache/internal/memo"
	"l15cache/internal/metrics"
	"l15cache/internal/rtsim"
	"l15cache/internal/runner"
	"l15cache/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sideeffects: ")

	trials := flag.Int("trials", 50, "trials per configuration")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "max concurrent trials (0 = NumCPU; never changes results)")
	checkpoint := flag.String("checkpoint", "", "JSON checkpoint file; an interrupted sweep resumes from it")
	memoFlag := flag.Bool("memo", false, "enable the in-memory trial result cache (never changes results)")
	memoDir := flag.String("memo-dir", "", "on-disk trial cache directory, shareable across runs (implies -memo)")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted table")
	metricsOut := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	showVersion := cli.VersionFlag()
	startTelemetry := cli.TelemetryFlag()
	flag.Parse()
	showVersion()
	flushTelemetry := startTelemetry()

	ctx, stop := runner.SignalContext(context.Background())
	defer stop()

	// die flushes the partial -metrics/-trace artifacts before a fatal
	// exit, so an interrupted sweep (Ctrl-C → runner.Canceled) still
	// leaves complete files behind.
	die := func(err error) {
		if werr := metrics.WriteFiles(*metricsOut, *traceOut); werr != nil {
			log.Print(werr)
		}
		if werr := flushTelemetry(); werr != nil {
			log.Print(werr)
		}
		log.Fatal(err)
	}

	cache, err := memo.FromFlags(*memoFlag, *memoDir)
	if err != nil {
		log.Fatal(err)
	}

	rt := rtsim.DefaultConfig()
	cfg := experiments.SideEffectsConfig{
		Trials: *trials,
		Seed:   *seed,
		RT:     rt,
		Set:    workload.DefaultTaskSetParams(),
		Run:    runner.Options{Workers: *workers, Checkpoint: *checkpoint, Memo: cache},
	}
	pts, err := experiments.RunSideEffects(ctx, cfg, []int{8, 16}, []float64{0.8, 1.0})
	if err != nil {
		die(err)
	}
	if *csv {
		fmt.Print(experiments.SideEffectsCSV(pts))
	} else {
		fmt.Print(experiments.FormatSideEffects(pts))
	}
	if err := metrics.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
	if err := flushTelemetry(); err != nil {
		log.Fatal(err)
	}
}
