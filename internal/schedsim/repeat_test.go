package schedsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/sched"
	"l15cache/internal/workload"
)

// runReference is Run without the repeated-instance copy: it simulates
// every instance. It also reports how many instances Run may copy, so a
// test can tell whether it exercised the copy at all.
func runReference(alloc *sched.Result, plat Platform, opt Options) ([]InstanceStats, int) {
	opt.fill()
	var sc scratch
	var stats []InstanceStats
	var prevCore, olderCore []int
	repeats := 0
	for i := 0; i < opt.Instances; i++ {
		if i >= 2 && slices.Equal(prevCore, olderCore) {
			repeats++
		}
		var s InstanceStats
		var cores []int
		if opt.Kernel == kernel.Ticked {
			s, cores = runInstance(alloc, plat, opt.Cores, i == 0, prevCore, nil, 0, int32(i))
		} else {
			s, cores = runInstanceEvents(alloc, plat, opt.Cores, i == 0, prevCore, nil, 0, int32(i), &sc)
		}
		stats = append(stats, s)
		// The events kernel reuses its placement buffers; keep copies.
		olderCore, prevCore = prevCore, slices.Clone(cores)
	}
	return stats, repeats
}

// system is one platform with the allocation it runs.
type system struct {
	plat  Platform
	alloc *sched.Result
}

// repeatSystems schedules clones of task for the four systems of the
// makespan and ablation sweeps: the proposed one under Alg. 1, the
// conventional ones under longest-path-first priorities.
func repeatSystems(t *testing.T, task *dag.Task) []system {
	t.Helper()
	prop, err := NewProposed(task.Clone(), DefaultZeta, DefaultWayBytes)
	if err != nil {
		t.Fatal(err)
	}
	out := []system{{prop, prop.Alloc}}
	for _, plat := range []Platform{CMPL1(), CMPL2(), SharedL1()} {
		out = append(out, system{plat, mustSchedule(t, task.Clone())})
	}
	return out
}

// TestRunCopiesRepeatedInstances holds Run to the reference loop that
// simulates every instance: the stats must be bit-identical across DAG
// seeds, the four systems, instance counts, core counts and both kernels.
func TestRunCopiesRepeatedInstances(t *testing.T) {
	p := workload.DefaultSynthParams()
	repeats := 0
	for seed := int64(1); seed <= 4; seed++ {
		task, err := workload.Synthetic(rand.New(rand.NewSource(seed)), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range repeatSystems(t, task) {
			for _, instances := range []int{1, 2, 3, 10} {
				for _, cores := range []int{1, 2, 8} {
					for _, k := range []kernel.Mode{kernel.Events, kernel.Ticked} {
						name := fmt.Sprintf("seed %d %s instances %d cores %d %s",
							seed, sys.plat.Name(), instances, cores, k)
						opt := Options{Cores: cores, Instances: instances, Kernel: k}
						got, err := Run(sys.alloc, sys.plat, opt)
						if err != nil {
							t.Fatal(err)
						}
						want, n := runReference(sys.alloc, sys.plat, opt)
						repeats += n
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: stats diverged:\nRun       %+v\nreference %+v", name, got, want)
						}
					}
				}
			}
		}
	}
	if repeats == 0 {
		t.Error("no instance repeated its predecessor; the copy is untested")
	}
}

// TestRunRecorderSameStatsAndCounters checks that attaching a recorder,
// which turns the copy off, changes neither the stats nor the amounts the
// schedsim.instances and schedsim.dispatches counters advance by.
func TestRunRecorderSameStatsAndCounters(t *testing.T) {
	task, err := workload.Synthetic(rand.New(rand.NewSource(3)), workload.DefaultSynthParams())
	if err != nil {
		t.Fatal(err)
	}
	alloc := mustSchedule(t, task)
	plat := CMPL1()
	for _, k := range []kernel.Mode{kernel.Events, kernel.Ticked} {
		run := func(rec *flight.Recorder) ([]InstanceStats, uint64, uint64) {
			inst, disp := mInstances.Load(), mDispatches.Load()
			stats, err := Run(alloc, plat, Options{Instances: 10, Kernel: k, Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			return stats, mInstances.Load() - inst, mDispatches.Load() - disp
		}
		plain, plainInst, plainDisp := run(nil)
		rec := flight.New()
		recorded, recInst, recDisp := run(rec)
		dispatchEvents := 0
		for _, e := range rec.Events() {
			if e.Kind == flight.KindDispatch {
				dispatchEvents++
			}
		}
		if want := 10 * len(task.Nodes); dispatchEvents != want {
			t.Errorf("%s: recording holds %d dispatches, want %d: a recorded run must simulate every instance",
				k, dispatchEvents, want)
		}
		if !reflect.DeepEqual(plain, recorded) {
			t.Errorf("%s: stats differ with a recorder:\nwithout %+v\nwith    %+v", k, plain, recorded)
		}
		if plainInst != 10 || recInst != 10 {
			t.Errorf("%s: schedsim.instances advanced %d without and %d with a recorder, want 10",
				k, plainInst, recInst)
		}
		if want := uint64(10 * len(task.Nodes)); plainDisp != want || recDisp != want {
			t.Errorf("%s: schedsim.dispatches advanced %d without and %d with a recorder, want %d",
				k, plainDisp, recDisp, want)
		}
	}
}
