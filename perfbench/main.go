// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the same public entry points the cmd/ tools use,
// checks every operation's output against a reference hash, and prints
// one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload fig7-makespan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
// measured in host time with tracing off. With --trace 1 it replays the
// workload's trial bodies layer by layer under in-memory spans, checks
// that the replay reproduces the untraced result exactly, and reports the
// per-layer metrics instead. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, so one slow first set-up (page faults, cold caches) does not
// decide it.
const setupRepeats = 5

// rssOps is the number of timed ops whose peak resident set is sampled;
// peak_rss_mb is their median. A fixed count keeps the reading on the same
// work however fast the program runs (the process-wide trace ring, for
// one, grows with every trial until full).
const rssOps = 9

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
	spansDir string // where a traced run writes its spans; "" skips writing
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed; the reference hashes are for the default")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 replays the workload under spans and reports per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", ".bench_build/perfbench", "directory for the traced run's span file (empty: none)")
	flag.Parse()
	o.trace = traceFlag != 0

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result; the human-
// readable record (machine fingerprint, output hash, metrics) goes to log.
func run(o options, log io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	chk := &checker{want: ref.expect(w.check, o.seed, o.size)}

	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		inst, err = w.prepare(o.seed, o.size)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		if w, ok := inst.(*warm); ok {
			chk.observe(w.cold) // memo must be invisible
		}
		out, err := inst.op(nil) // the discarded warm-up op
		if err != nil {
			return nil, fmt.Errorf("%s: set-up op: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		chk.observe(out)
	}

	var res *result
	if o.trace {
		res, err = traced(o, inst, chk)
	} else {
		res, err = measure(o, inst, chk, median(setups))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	res.Correct = res.Failed == 0
	printRecord(log, o, chk, res)
	return res, nil
}

// measure times ops back to back for o.seconds (at least one op) with
// tracing off and derives the end-to-end metrics.
func measure(o options, inst instance, chk *checker, setup float64) (*result, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var opTimes, rss []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(opTimes) == 0 || time.Now().Before(deadline) {
		sample := len(rss) < rssOps
		if sample {
			resetPeakRSS()
		}
		start := time.Now()
		out, err := inst.op(nil)
		if err != nil {
			return nil, err
		}
		opTimes = append(opTimes, time.Since(start).Seconds())
		if sample {
			rss = append(rss, peakRSSMB())
		}
		chk.observe(out)
	}
	runtime.ReadMemStats(&after)

	// Throughput is total trials over total op time, not trials over the
	// median op: op times swing between a fast and a slow level for
	// seconds at a time with the host's other load, and the median jumps
	// between the two where the mean moves smoothly with their mix.
	trials := float64(inst.trialsPerOp() * len(opTimes))
	var busy float64
	for _, t := range opTimes {
		busy += t
	}
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return &result{
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics: map[string]metric{
			"trials_per_s":       {trials / busy, "trials/s"},
			"setup_s":            {setup, "s"},
			"alloc_mb_per_trial": {allocMB / trials, "MB/trial"},
			"peak_rss_mb":        {median(rss), "MB"},
		},
	}, nil
}

// resetPeakRSS resets the kernel's resident-set high-water mark to the
// current resident set (Linux: "5" to /proc/self/clear_refs), so the next
// peakRSSMB covers one op. Where that is unsupported the mark stays, and
// the samples are the process's peak so far.
func resetPeakRSS() {
	// Failure only widens the sample to the whole process so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark in MB: VmHWM from
// /proc/self/status, or getrusage maxrss where that file is missing (both
// in KiB).
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// printRecord writes the run's attribution and readings: the machine
// fingerprint, the output hash (so runs on a held-out seed can be
// compared across commits) and every metric with its unit.
func printRecord(w io.Writer, o options, chk *checker, res *result) {
	rec := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.trace,
		"machine":    machineFingerprint(sweepWorkers),
		"output":     chk.got,
		"reference":  chk.want,
		"error_rate": float64(chk.failed) / float64(max(chk.attempted, 1)),
	}
	line, err := json.Marshal(rec)
	if err == nil {
		fmt.Fprintf(w, "record %s\n", line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %s\n", "error_rate", rec["error_rate"], "failed/attempted")
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
