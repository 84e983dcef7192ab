// Command acceptance runs the analytical schedulability experiment of
// §4.2: the fraction of random DAG tasks whose safe makespan bound (Graham
// with communication costs folded into the consumer nodes) meets the
// implicit deadline, for the conventional edge costs versus Alg. 1's
// ETM-reduced costs, alongside the simulated ground truth.
//
// Usage:
//
//	acceptance [-dags N] [-cores M] [-seed S] [-workers N] [-checkpoint file.json]
//	           [-memo] [-memo-dir DIR]
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
	"l15cache/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("acceptance: ")

	dags := flag.Int("dags", 200, "tasks per utilisation point")
	cores := flag.Int("cores", 8, "core count m")
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

	cfg := experiments.DefaultAcceptanceConfig()
	cfg.DAGs = *dags
	cfg.Cores = *cores
	cfg.Seed = *seed
	cache, err := memo.FromFlags(*memoFlag, *memoDir)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Run = runner.Options{Workers: *workers, Checkpoint: *checkpoint, Memo: cache}

	utils := []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	points, err := experiments.AcceptanceRatio(ctx, cfg, utils)
	if err != nil {
		die(err)
	}
	if *csv {
		fmt.Print(experiments.AcceptanceCSV(points))
	} else {
		fmt.Print(experiments.FormatAcceptance(points))
	}
	if err := metrics.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
	if err := flushTelemetry(); err != nil {
		log.Fatal(err)
	}
}
