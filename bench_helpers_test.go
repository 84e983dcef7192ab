package l15cache_test

import (
	"math/rand"
	"testing"

	"l15cache"
	"l15cache/internal/dag"
	"l15cache/internal/experiments"
	"l15cache/internal/rtos"
	"l15cache/internal/sched"
	"l15cache/internal/soc"
	"l15cache/internal/workload"
)

func mustSynthetic(tb testing.TB, seed int64, cfg experiments.MakespanConfig) *dag.Task {
	tb.Helper()
	task, err := workload.Synthetic(rand.New(rand.NewSource(seed)), cfg.Base)
	if err != nil {
		tb.Fatal(err)
	}
	return task
}

func scheduleL15(task *dag.Task) (*sched.Result, error) {
	return sched.L15Schedule(task, 16, 2048)
}

const sharingProducer = `
	li a0, 4
	demand a0
wait:
	supply a1
	beqz a1, wait
	ip_set a1
	li t0, 0x4000
	li t1, 64
	li t2, 1
wloop:
	sw t2, 0(t0)
	addi t0, t0, 4
	addi t2, t2, 1
	addi t1, t1, -1
	bnez t1, wloop
	gv_set a1
	li t0, 0x7000
	li t1, 1
	sw t1, 0(t0)
	ebreak
`

const sharingConsumer = `
	li t0, 0x7000
spin:
	lw t1, 0(t0)
	beqz t1, spin
	li t0, 0x4000
	li t1, 64
	li a0, 0
rloop:
	lw t2, 0(t0)
	add a0, a0, t2
	addi t0, t0, 4
	addi t1, t1, -1
	bnez t1, rloop
	ebreak
`

func runSharingDemo(tb testing.TB) {
	tb.Helper()
	s, err := l15cache.NewSoC(l15cache.DefaultSoCConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.LoadProgram(0x1000, sharingProducer); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.LoadProgram(0x2000, sharingConsumer); err != nil {
		tb.Fatal(err)
	}
	pt := s.IdentityPageTable(1)
	for core := 0; core < 2; core++ {
		if err := s.SetPageTable(core, pt); err != nil {
			tb.Fatal(err)
		}
	}
	s.StartCore(0, 0x1000, 0x8000)
	s.StartCore(1, 0x2000, 0x9000)
	for i := 2; i < len(s.Cores); i++ {
		s.Cores[i].Halted = true
	}
	if _, err := s.Run(1_000_000, nil); err != nil {
		tb.Fatal(err)
	}
	// Σ 1..64 = 2080: fail loudly if the simulated transfer broke.
	if got := s.Cores[1].Regs[10]; got != 2080 {
		tb.Fatalf("consumer sum = %d, want 2080", got)
	}
}

func runKernelBench(tb testing.TB) {
	tb.Helper()
	task := dag.New("bench-pipe", 1, 1)
	src := task.AddNode("a", 1200, 4096)
	mid := task.AddNode("b", 1800, 4096)
	sink := task.AddNode("c", 800, 0)
	task.MustAddEdge(src, mid, 10, 0.6)
	task.MustAddEdge(mid, sink, 10, 0.6)
	k, err := rtos.New(rtos.Config{
		SoC:         soc.DefaultConfig(),
		UseL15:      true,
		JobsPerTask: 2,
	}, []rtos.TaskSpec{{Task: task, PeriodCycles: 100_000, DeadlineCycles: 100_000}})
	if err != nil {
		tb.Fatal(err)
	}
	records, err := k.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if len(records) != 2 || rtos.Misses(records) != 0 {
		tb.Fatalf("kernel bench records: %+v", records)
	}
}

// cpuLoop is BenchmarkCPUStep's program: 20000 iterations of a load, ALU
// work, a store and the loop branch over a 1 KiB buffer (160k
// instructions, all L1 hits after the first pass).
const cpuLoop = `
	li s0, 0x4000
	li t0, 20000
loop:
	andi t1, t0, 255
	slli t1, t1, 2
	add t2, s0, t1
	lw t3, 0(t2)
	addi t3, t3, 1
	sw t3, 0(t2)
	addi t0, t0, -1
	bnez t0, loop
	ebreak
`
