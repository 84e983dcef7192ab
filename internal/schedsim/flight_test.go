package schedsim

import (
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/sched"
)

// span is one node execution read back from a flight recording: the
// dispatch event gives the start and the fetch phase (A), the finish event
// the end.
type span struct {
	job, core, node  int
	start, fetchEnd  float64
	end              float64
	dispatched, done int
}

// recordedRun simulates alloc with a flight recorder attached, with Run or,
// when ticked, with the ticked reference loop, and returns the spans keyed
// by (job, node), plus the per-instance statistics.
func recordedRun(t *testing.T, alloc *sched.Result, plat Platform, opt Options, ticked bool) (map[[2]int]*span, []InstanceStats) {
	t.Helper()
	opt.Recorder = flight.New()
	var stats []InstanceStats
	if ticked {
		stats, _ = runReference(alloc, plat, opt, true)
	} else {
		var err error
		if stats, err = Run(alloc, plat, opt); err != nil {
			t.Fatal(err)
		}
	}
	spans := map[[2]int]*span{}
	get := func(e flight.Event) *span {
		k := [2]int{int(e.Job), int(e.Node)}
		if spans[k] == nil {
			spans[k] = &span{job: int(e.Job), node: int(e.Node)}
		}
		return spans[k]
	}
	for _, e := range opt.Recorder.Snapshot().Events {
		switch e.Kind {
		case flight.KindDispatch:
			s := get(e)
			s.dispatched++
			s.core = int(e.Core)
			s.start, s.fetchEnd = e.Time, e.Time+e.A
		case flight.KindFinish:
			s := get(e)
			s.done++
			s.end = e.Time
		}
	}
	return spans, stats
}

// recordedCase is one run the span tests check.
type recordedCase struct {
	name   string
	alloc  *sched.Result
	plat   Platform
	opt    Options
	ticked bool // run the ticked reference loop instead of Run
	nodes  int
}

// recordedCases are the runs the span tests check, with Run and with the
// ticked reference loop.
func recordedCases(t *testing.T) []recordedCase {
	t.Helper()
	prop, err := NewProposed(dag.Fig1Example(), 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	chain := mustSchedule(t, dag.Chain("c", 3, 2, 3, 0.5, 1024))
	var cases []recordedCase
	for _, ticked := range []bool{false, true} {
		k := kernelName(ticked)
		cases = append(cases,
			recordedCase{"fig1-proposed/" + k, prop.Alloc, prop, Options{Cores: 4, Instances: 2}, ticked, 7},
			recordedCase{"chain-raw/" + k, chain, rawPlatform{}, Options{Cores: 2}, ticked, 3})
	}
	return cases
}

// TestRecordCapturesAllNodes checks that a recording holds exactly one
// dispatch and one finish per node per instance, and that each instance's
// last finish is the makespan the simulator reports.
func TestRecordCapturesAllNodes(t *testing.T) {
	for _, c := range recordedCases(t) {
		spans, stats := recordedRun(t, c.alloc, c.plat, c.opt, c.ticked)
		instances := max(c.opt.Instances, 1)
		if len(spans) != c.nodes*instances {
			t.Errorf("%s: %d spans, want %d nodes × %d instances", c.name, len(spans), c.nodes, instances)
		}
		last := make([]float64, instances)
		for k, s := range spans {
			if s.dispatched != 1 || s.done != 1 {
				t.Errorf("%s: job %d node %d dispatched %d times, finished %d times; want once each",
					c.name, k[0], k[1], s.dispatched, s.done)
			}
			if s.job < 0 || s.job >= instances {
				t.Errorf("%s: span of job %d outside %d instances", c.name, s.job, instances)
				continue
			}
			last[s.job] = max(last[s.job], s.end)
		}
		for i, st := range stats {
			if last[i] != st.Makespan {
				t.Errorf("%s: instance %d last finish %g, makespan %g", c.name, i, last[i], st.Makespan)
			}
		}
	}
}

// TestSpanInvariants checks every recorded span: the fetch phase precedes
// the computation, the core exists, and no two spans of one instance
// overlap on a core (execution is non-preemptive).
func TestSpanInvariants(t *testing.T) {
	for _, c := range recordedCases(t) {
		spans, _ := recordedRun(t, c.alloc, c.plat, c.opt, c.ticked)
		var all []*span
		for _, s := range spans {
			if !(s.start <= s.fetchEnd && s.fetchEnd <= s.end) {
				t.Errorf("%s: span phases out of order: %+v", c.name, *s)
			}
			if s.core < 0 || s.core >= c.opt.Cores {
				t.Errorf("%s: span on core %d of %d", c.name, s.core, c.opt.Cores)
			}
			all = append(all, s)
		}
		for i, a := range all {
			for _, b := range all[i+1:] {
				if a.job == b.job && a.core == b.core && a.start < b.end && b.start < a.end {
					t.Errorf("%s: overlap on core %d: %+v and %+v", c.name, a.core, *a, *b)
				}
			}
		}
	}
}

// TestRecorderStandalone runs a three-node chain on the raw platform with
// only a flight recorder attached: it records three spans in chain order,
// and attaching it leaves the simulated statistics unchanged.
func TestRecorderStandalone(t *testing.T) {
	chain := mustSchedule(t, dag.Chain("c", 3, 2, 3, 0.5, 1024))
	opt := Options{Cores: 2}
	spans, stats := recordedRun(t, chain, rawPlatform{}, opt, false)
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	for v := 1; v < 3; v++ {
		prev, cur := spans[[2]int{0, v - 1}], spans[[2]int{0, v}]
		if prev == nil || cur == nil {
			t.Fatalf("missing span of node %d or %d", v-1, v)
		}
		if cur.start < prev.end {
			t.Errorf("node %d starts at %g before node %d ends at %g", v, cur.start, v-1, prev.end)
		}
	}
	plain, err := Run(chain, rawPlatform{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(stats) || plain[0] != stats[0] {
		t.Errorf("recorded run %+v, unrecorded run %+v", stats, plain)
	}
}
