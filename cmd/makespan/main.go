// Command makespan regenerates the makespan evaluation of the paper:
// Fig. 7 (a,b,c) — the normalised average makespan of the proposed system
// against CMP|L1 and CMP|L2 under varied utilisation, layer width p and
// critical-path ratio — and the matching worst-case blocks of Tab. 2.
//
// Usage:
//
//	makespan [-sweep u|p|cpr|all] [-dags N] [-instances N] [-cores N]
//	         [-seed S] [-workers N] [-checkpoint file.json] [-memo]
//	         [-memo-dir DIR]
//
// With the defaults (500 DAGs × 10 instances, as in §5.1) a full run takes
// a few minutes; use -dags 100 for a quick pass. Trials fan out on the
// internal/runner pool: -workers caps the concurrency (0 = NumCPU) without
// changing any result, -checkpoint makes an interrupted run (Ctrl-C)
// resumable at trial granularity, and -memo/-memo-dir enable the
// content-addressed trial result cache (internal/memo): a -memo-dir
// shared between runs serves every previously computed trial from disk,
// byte-identically.
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
	log.SetPrefix("makespan: ")

	sweep := flag.String("sweep", "all", "which sweep to run: u, p, cpr or all")
	dags := flag.Int("dags", 500, "DAG tasks per parameter point")
	instances := flag.Int("instances", 10, "instances per DAG (first is cold)")
	cores := flag.Int("cores", 8, "number of cores m")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "max concurrent trials (0 = NumCPU; never changes results)")
	checkpoint := flag.String("checkpoint", "", "JSON checkpoint file; an interrupted sweep resumes from it")
	memoFlag := flag.Bool("memo", false, "enable the in-memory trial result cache (never changes results)")
	memoDir := flag.String("memo-dir", "", "on-disk trial cache directory, shareable across runs (implies -memo)")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted tables")
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

	cfg := experiments.DefaultMakespanConfig()
	cfg.DAGs = *dags
	cfg.Instances = *instances
	cfg.Cores = *cores
	cfg.Seed = *seed
	cache, err := memo.FromFlags(*memoFlag, *memoDir)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Run = runner.Options{Workers: *workers, Checkpoint: *checkpoint, Memo: cache}

	type sweepRun struct {
		name string
		run  func() (*experiments.MakespanSweep, error)
	}
	runs := []sweepRun{
		{"u", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepUtilization(ctx, cfg, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		}},
		{"p", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepWidth(ctx, cfg, []float64{9, 12, 15, 18, 21})
		}},
		{"cpr", func() (*experiments.MakespanSweep, error) {
			return experiments.SweepCPR(ctx, cfg, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
		}},
	}
	ran := false
	for _, r := range runs {
		if *sweep != "all" && *sweep != r.name {
			continue
		}
		ran = true
		s, err := r.run()
		if err != nil {
			die(err)
		}
		if *csv {
			fmt.Print(s.CSV())
			continue
		}
		fmt.Print(s.FormatFig7())
		fmt.Println()
		fmt.Print(s.FormatTable2())
		fmt.Println()
	}
	if !ran {
		log.Fatalf("unknown sweep %q (want u, p, cpr or all)", *sweep)
	}
	if err := metrics.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
	if err := flushTelemetry(); err != nil {
		log.Fatal(err)
	}
}
