// Command ablation runs the design-choice ablations of DESIGN.md §4: the
// L1.5 way count ζ, the way size κ at fixed capacity, the two components of
// Algorithm 1 (way allocation vs λ-driven priorities), the SDU's per-way
// configuration delay, and the ETM's diminishing returns per extra way.
// These sweeps back the repository's design discussion rather than a
// specific paper figure.
//
// Usage:
//
//	ablation [-dags N] [-trials N] [-seed S] [-which zeta|kappa|prio|delay|etm|all]
//	         [-workers N] [-checkpoint file.json] [-memo] [-memo-dir DIR]
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
	log.SetPrefix("ablation: ")

	dags := flag.Int("dags", 200, "DAG tasks per point (zeta/kappa/prio)")
	trials := flag.Int("trials", 20, "trials per point (delay)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	which := flag.String("which", "all", "zeta, kappa, prio, delay, etm or all")
	workers := flag.Int("workers", 0, "max concurrent trials (0 = NumCPU; never changes results)")
	checkpoint := flag.String("checkpoint", "", "JSON checkpoint file; an interrupted sweep resumes from it")
	memoFlag := flag.Bool("memo", false, "enable the in-memory trial result cache (never changes results)")
	memoDir := flag.String("memo-dir", "", "on-disk trial cache directory, shareable across runs (implies -memo)")
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

	run := runner.Options{Workers: *workers, Checkpoint: *checkpoint, Memo: cache}
	cfg := experiments.DefaultMakespanConfig()
	cfg.DAGs = *dags
	cfg.Seed = *seed
	cfg.Run = run

	want := func(name string) bool { return *which == "all" || *which == name }
	ran := false

	if want("zeta") {
		ran = true
		res, err := experiments.AblateZeta(ctx, cfg, experiments.AblationZetaDefault())
		if err != nil {
			die(err)
		}
		fmt.Println(res.Format())
	}
	if want("kappa") {
		ran = true
		res, err := experiments.AblateWayBytes(ctx, cfg, experiments.AblationWayBytesDefault())
		if err != nil {
			die(err)
		}
		fmt.Println(res.Format())
	}
	if want("prio") {
		ran = true
		res, err := experiments.AblatePriorities(ctx, cfg)
		if err != nil {
			die(err)
		}
		fmt.Println(res.Format())
	}
	if want("delay") {
		ran = true
		res, err := experiments.AblateConfigDelay(ctx, *trials, *seed, run, experiments.AblationDelayDefault())
		if err != nil {
			die(err)
		}
		fmt.Println(res.Format())
	}
	if want("etm") {
		ran = true
		fmt.Println("ablation — ETM cost vs ways (μ=10, δ=8KB, α=0.7; ⌈δ/κ⌉=4)")
		for _, p := range experiments.ETMDiminishingReturns(10, 8192, 8) {
			fmt.Printf("%10.0f%14.4f\n", p.Param, p.Value)
		}
		fmt.Println()
	}
	if !ran {
		log.Fatalf("unknown ablation %q", *which)
	}
	if err := metrics.WriteFiles(*metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
	if err := flushTelemetry(); err != nil {
		log.Fatal(err)
	}
}
