package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of one module. Spans of one trial share Trial; Parent
// indexes the enclosing span (-1 for a root).
type span struct {
	Trial  uint64 `json:"trial"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so replay
// code runs untraced by passing nil.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(trial uint64, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Trial: trial, Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// mean returns the mean duration of the named spans in the given unit,
// or 0 when the workload never calls that layer.
func (t *tracer) mean(name string, unit time.Duration) float64 {
	ds := t.durations(name)
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(unit)
}

// write saves the spans as JSON to dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), raw, 0o666)
}

// timedLayers maps each per-layer timing metric to the span it averages.
var timedLayers = []struct {
	metric, span string
	unit         time.Duration
}{
	{"workload.synthetic_us", "workload.synthetic", time.Microsecond},
	{"workload.taskset_us", "workload.taskset", time.Microsecond},
	{"dag.clone_us", "dag.clone", time.Microsecond},
	{"dag.longest_us", "dag.longest", time.Microsecond},
	{"sched.l15_us", "sched.l15", time.Microsecond},
	{"sched.lpf_us", "sched.lpf", time.Microsecond},
	{"schedsim.new_proposed_us", "schedsim.new_proposed", time.Microsecond},
	{"schedsim.run_us.prop", "schedsim.run.prop", time.Microsecond},
	{"schedsim.run_us.cmp_l1", "schedsim.run.cmp_l1", time.Microsecond},
	{"schedsim.run_us.cmp_l2", "schedsim.run.cmp_l2", time.Microsecond},
	{"rtsim.run_us.prop", "rtsim.run.prop", time.Microsecond},
	{"rtsim.run_us.cmp_l1", "rtsim.run.cmp_l1", time.Microsecond},
	{"rtsim.run_us.cmp_l2", "rtsim.run.cmp_l2", time.Microsecond},
	{"rtsim.run_us.shared_l1", "rtsim.run.shared_l1", time.Microsecond},
	{"soc.new_ms", "soc.new", time.Millisecond},
	{"rtos.new_ms.l15_on", "rtos.new.l15_on", time.Millisecond},
	{"rtos.new_ms.l15_off", "rtos.new.l15_off", time.Millisecond},
	{"rtos.run_ms.l15_on", "rtos.run.l15_on", time.Millisecond},
	{"rtos.run_ms.l15_off", "rtos.run.l15_off", time.Millisecond},
	{"memo.key_us", "memo.key", time.Microsecond},
	{"memo.get_us", "memo.get", time.Microsecond},
	{"memo.decode_us", "memo.decode", time.Microsecond},
	{"memo.put_us", "memo.put", time.Microsecond},
	{"experiments.sweep_ms", "experiments.sweep", time.Millisecond},
}

// countLayers are the per-layer metrics a replay reports as counts:
// simulated statistics and input sizes, which repeat exactly for one
// seed, and two host rates (host set). A workload that does not reach a
// layer reports 0 for it.
var countLayers = []struct {
	name, unit string
	host       bool
}{
	{"dag.nodes", "nodes/DAG", false},
	{"dag.edges", "edges/DAG", false},
	{"sched.waves", "waves/DAG", false},
	{"rtsim.jobs", "jobs/run", false},
	{"rtsim.misses", "misses/run", false},
	{"rtsim.phi", "ratio", false},
	{"rtsim.way_util", "ratio", false},
	{"cpu.instret", "count", false},
	{"cpu.cycles", "cycles", false},
	{"cpu.ipc", "instr/cycle", false},
	{"cpu.fetch_stall_cycles", "cycles", false},
	{"cpu.mem_stall_cycles", "cycles", false},
	{"cpu.ns_per_instr", "ns/instr", true},
	{"soc.sim_mips", "Minstr/s", true},
	{"l15.hits", "count", false},
	{"l15.global_hits", "count", false},
	{"l15.misses", "count", false},
	{"l15.config_events", "count", false},
	{"l2.hits", "count", false},
	{"l2.misses", "count", false},
	{"memo.hits", "count", false},
	{"memo.misses", "count", false},
	{"memo.hit_ratio", "ratio", false},
}

// traceReps is how often a traced run replays one op's trials, so the
// trial-latency tail rests on enough samples.
const traceReps = 2

// tracedOps is how many untraced ops a traced run times with one span
// around each public sweep call (experiments.sweep_ms).
const tracedOps = 3

// traced is the per-layer run: it replays the op's trials untraced (once
// to warm up, then timed) and under spans, requires every replay to
// reproduce the untraced op's output byte for byte, and reports the
// per-layer metrics.
func traced(o options, inst instance, chk *checker) (*result, error) {
	tr := newTracer()
	var out []byte
	for i := 0; i < tracedOps; i++ {
		var err error
		if out, err = inst.op(tr); err != nil {
			return nil, err
		}
		chk.observe(out)
	}

	warmup, err := inst.replay(nil, 1)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	plain, err := inst.replay(nil, traceReps)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	spanned, err := inst.replay(tr, traceReps)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	for _, r := range []*replayed{warmup, plain, spanned} {
		if !bytes.Equal(r.out, out) {
			return nil, fmt.Errorf("replay does not reproduce the untraced result; per-layer numbers would describe a different program")
		}
	}

	m := map[string]metric{}
	for _, l := range timedLayers {
		m[l.metric] = metric{tr.mean(l.span, l.unit), unitName(l.unit)}
	}
	for _, l := range countLayers {
		m[l.name] = metric{spanned.counts[l.name], l.unit}
	}
	trials := tr.durations("trial")
	p50, tail, q := trialLatency(trials)
	m["trial.p50_ms"] = metric{p50, "ms"}
	m["trial.tail_ms"] = metric{tail, "ms"}
	m["trial.tail_q"] = metric{q, "quantile"}
	m["trial.samples"] = metric{float64(len(trials)), "count"}
	m["trace.overhead_frac"] = metric{spanned.loop.Seconds()/plain.loop.Seconds() - 1, "ratio"}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}

	if o.spansDir != "" {
		if err := tr.write(o.spansDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return &result{Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}

func unitName(u time.Duration) string {
	if u == time.Millisecond {
		return "ms"
	}
	return "us"
}

// trialLatency returns the median trial time and the highest percentile
// that still has at least ten samples beyond it (capped at p99), both in
// ms, with that percentile's quantile. Below twenty samples no tail can
// be told apart from the median, and the tail is reported as the median.
func trialLatency(ds []time.Duration) (p50, tail, q float64) {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	q = 0.5
	if n := float64(len(ms)); n >= 20 {
		q = math.Min(0.99, 1-10/n)
	}
	return median(ms), quantile(ms, q), q
}
