package rtsim

import (
	"reflect"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
)

// TestKernelEquivalence runs the same task set through Run and through
// runTicked for every system kind and requires identical
// metrics and flight recordings.
func TestKernelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tasks := testTaskSet(t, seed, 8, 0.7)
		for _, kind := range []Kind{KindProp, KindCMPL1, KindCMPL2, KindSharedL1} {
			cfgT := DefaultConfig()
			cfgT.Recorder = flight.New()
			mT, err := runTicked(tasks, kind, cfgT)
			if err != nil {
				t.Fatalf("seed %d %v ticked: %v", seed, kind, err)
			}

			cfgE := DefaultConfig()
			cfgE.Recorder = flight.New()
			mE, err := Run(tasks, kind, cfgE)
			if err != nil {
				t.Fatalf("seed %d %v events: %v", seed, kind, err)
			}

			if mT != mE {
				t.Errorf("seed %d %v: metrics diverged:\nticked %+v\nevents %+v",
					seed, kind, mT, mE)
			}
			evT, evE := cfgT.Recorder.Events(), cfgE.Recorder.Events()
			if !reflect.DeepEqual(evT, evE) {
				t.Errorf("seed %d %v: flight recordings diverged (%d vs %d events)",
					seed, kind, len(evT), len(evE))
			}
			if len(evE) == 0 {
				t.Errorf("seed %d %v: no flight events; test is vacuous", seed, kind)
			}
		}
	}
}

// TestKernelEquivalencePartitioned covers the partitioned dispatcher and
// an overload, where preemption-free backlog handling differs most between
// Run's dispatch and the reference.
func TestKernelEquivalencePartitioned(t *testing.T) {
	tasks := testTaskSet(t, 7, 8, 1.2)
	for _, part := range []bool{false, true} {
		cfgT := DefaultConfig()
		cfgT.Partitioned = part
		mT, err := runTicked(tasks, KindProp, cfgT)
		if err != nil {
			t.Fatal(err)
		}
		cfgE := DefaultConfig()
		cfgE.Partitioned = part
		mE, err := Run(tasks, KindProp, cfgE)
		if err != nil {
			t.Fatal(err)
		}
		if mT != mE {
			t.Errorf("partitioned=%v: metrics diverged:\nticked %+v\nevents %+v",
				part, mT, mE)
		}
	}
}

// runTicked is Run with the reference dispatchTicked in place of dispatch.
func runTicked(tasks []*dag.Task, kind Kind, cfg Config) (Metrics, error) {
	var s sim
	if err := s.setup(tasks, kind, cfg); err != nil {
		return Metrics{}, err
	}
	tl := s.plan()
	for s.advance(&tl) {
		dispatchTicked(&s)
	}
	return s.finish(tl.jobs), nil
}

// dispatchTicked is the dispatcher dispatch replaced, kept as its
// reference: it allocates its idle-core lists and skip set afresh every
// round, and must give the same metrics and flight events.
func dispatchTicked(s *sim) {
	for {
		var idle []int
		for c, f := range s.freeAt {
			if f <= s.now {
				idle = append(idle, c)
			}
		}
		if len(idle) == 0 || len(s.ready) == 0 {
			return
		}
		if s.partition == nil {
			ri := s.pickReady()
			rn := s.ready[ri]
			s.ready = append(s.ready[:ri], s.ready[ri+1:]...)
			s.place(rn, idle)
			continue
		}
		placed := false
		taken := make(map[int]bool)
		for !placed {
			ri := pickReadyExcluding(s, taken)
			if ri < 0 {
				return
			}
			rn := s.ready[ri]
			cl := s.partition[rn.j.taskIdx]
			var clusterIdle []int
			for _, c := range idle {
				if c/s.cfg.ClusterSize == cl {
					clusterIdle = append(clusterIdle, c)
				}
			}
			if len(clusterIdle) == 0 {
				taken[ri] = true
				continue
			}
			s.ready = append(s.ready[:ri], s.ready[ri+1:]...)
			s.place(rn, clusterIdle)
			placed = true
		}
	}
}

// pickReadyExcluding returns the best ready index not in skip, or -1.
func pickReadyExcluding(s *sim, skip map[int]bool) int {
	best := -1
	for i := range s.ready {
		if skip[i] {
			continue
		}
		if best < 0 || s.readyLess(s.ready[i], s.ready[best]) {
			best = i
		}
	}
	return best
}
