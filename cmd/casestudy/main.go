// Command casestudy regenerates Fig. 8(a,b): the success ratio of the
// proposed system and the three baselines (CMP|L1, CMP|L2, CMP|Shared-L1)
// on PARSEC-like periodic DAG task sets, swept over the target utilisation.
//
// Usage:
//
//	casestudy [-cores 8|16] [-trials N] [-step pct] [-seed S]
//	          [-workers N] [-checkpoint file.json] [-memo] [-memo-dir DIR]
//
// Trials fan out on the internal/runner pool: -workers caps the
// concurrency (0 = NumCPU) without changing any result, -checkpoint makes
// an interrupted run (Ctrl-C) resumable at trial granularity, and
// -memo/-memo-dir enable the content-addressed trial result cache
// (internal/memo): a -memo-dir shared between runs serves every
// previously computed trial from disk, byte-identically. -flight
// additionally records one representative trial (the configured core
// count, 60% utilisation, proposed system) into a flight recording that
// cmd/explain can dissect. An interrupt still flushes the partial
// -metrics/-trace/-flight files before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"l15cache/internal/cli"
	"l15cache/internal/experiments"
	"l15cache/internal/flight"
	"l15cache/internal/memo"
	"l15cache/internal/metrics"
	"l15cache/internal/rtsim"
	"l15cache/internal/runner"
	"l15cache/internal/workload"
)

// minStep is the finest -step accepted: 0.1% utilisation.
const minStep = 0.001

func main() {
	log.SetFlags(0)
	log.SetPrefix("casestudy: ")

	cores := flag.Int("cores", 8, "core count (8 for Fig. 8(a), 16 for Fig. 8(b))")
	trials := flag.Int("trials", 200, "trials per utilisation point")
	step := flag.Float64("step", 0.05, "utilisation step")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "max concurrent trials (0 = NumCPU; never changes results)")
	checkpoint := flag.String("checkpoint", "", "JSON checkpoint file; an interrupted sweep resumes from it")
	memoFlag := flag.Bool("memo", false, "enable the in-memory trial result cache (never changes results)")
	memoDir := flag.String("memo-dir", "", "on-disk trial cache directory, shareable across runs (implies -memo)")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted table")
	partitioned := flag.Bool("partitioned", false, "partition tasks to clusters instead of global scheduling")
	metricsOut := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing)")
	flightOut := flag.String("flight", "", "record one representative trial to this flight file (.jsonl or .bin)")
	showVersion := cli.VersionFlag()
	startTelemetry := cli.TelemetryFlag()
	flag.Parse()
	showVersion()
	// The utilisation loop below ends only for a finite positive step, and
	// a tinier one than minStep would build a sweep of enormous size.
	if !(*step >= minStep) || math.IsInf(*step, 1) {
		log.Fatalf("-step must be a finite utilisation step of at least %g, got %g", minStep, *step)
	}
	flushTelemetry := startTelemetry()

	ctx, stop := runner.SignalContext(context.Background())
	defer stop()

	var rec *flight.Recorder
	if *flightOut != "" {
		rec = flight.New()
	}
	// flush writes every requested artifact; die runs it before a fatal
	// exit so an interrupted sweep (Ctrl-C → runner.Canceled) still
	// leaves complete partial files behind.
	flush := func() error {
		if err := metrics.WriteFiles(*metricsOut, *traceOut); err != nil {
			return err
		}
		if err := flushTelemetry(); err != nil {
			return err
		}
		if *flightOut != "" {
			return flight.WriteFile(*flightOut, rec.Snapshot())
		}
		return nil
	}
	die := func(err error) {
		if werr := flush(); werr != nil {
			log.Print(werr)
		}
		log.Fatal(err)
	}

	cfg := experiments.DefaultCaseStudyConfig(*cores)
	cfg.Trials = *trials
	cfg.Seed = *seed
	cfg.RT.Partitioned = *partitioned
	cache, err := memo.FromFlags(*memoFlag, *memoDir)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Run = runner.Options{Workers: *workers, Checkpoint: *checkpoint, Memo: cache}

	if rec != nil {
		if err := recordTrial(*seed, *cores, rec); err != nil {
			die(err)
		}
	}

	var utils []float64
	for u := 0.40; u <= 0.90+1e-9; u += *step {
		utils = append(utils, u)
	}
	res, err := experiments.RunCaseStudy(ctx, cfg, utils)
	if err != nil {
		die(err)
	}
	if *csv {
		fmt.Print(res.CSV())
	} else {
		fmt.Print(res.Format())
	}
	if err := flush(); err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		log.Printf("wrote %s (%d events, %d dropped)", *flightOut, rec.Len(), rec.Dropped())
	}
}

// recordTrial runs one representative case-study trial (60% utilisation,
// proposed system) with the flight recorder attached. The recording is a
// pure function of seed and cores.
func recordTrial(seed int64, cores int, rec *flight.Recorder) error {
	r := rand.New(rand.NewSource(seed))
	set := workload.DefaultTaskSetParams()
	set.TargetUtilization = 0.6 * float64(cores)
	tasks, err := workload.TaskSet(r, set)
	if err != nil {
		return err
	}
	cfg := rtsim.DefaultConfig()
	cfg.Cores = cores
	cfg.Recorder = rec
	_, err = rtsim.Run(tasks, rtsim.KindProp, cfg)
	return err
}
