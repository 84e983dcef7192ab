package cpu

import (
	"fmt"
	"testing"

	"l15cache/internal/isa"
)

// codeMem is flatMem with one address space for code and data: a word
// store over an instruction rewrites it, so a program can patch its own
// code.
type codeMem struct{ *flatMem }

func (m codeMem) Store(core int, va uint32, size int, value uint32) (int, error) {
	if _, ok := m.words[va]; ok && size == 4 {
		m.words[va] = value
	}
	return m.flatMem.Store(core, va, size, value)
}

func encode(t *testing.T, inst isa.Inst) uint32 {
	t.Helper()
	w, err := isa.Encode(inst)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runOn runs a core of the given issue width over mem until it halts at
// an ebreak.
func runOn(t *testing.T, mem MemSystem, width int) *Core {
	t.Helper()
	c, err := New(0, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Width, c.MemPorts = width, 1
	trap, err := c.Run(10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trap.Kind != TrapEBreak || !c.Halted {
		t.Fatalf("run ended with trap %v, halted %v", trap.Kind, c.Halted)
	}
	return c
}

// A store over an instruction the core has already executed (and cached)
// must take effect: the next fetch brings the new word, whose tag misses.
func TestDecodeCacheSelfModifyingCode(t *testing.T) {
	patch := encode(t, isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 100})
	src := fmt.Sprintf(`
		li t0, 0
		li t1, 2
		li s1, %d
		auipc s0, 0
	again:
		addi t0, t0, 1
		sw s1, 4(s0)
		addi t1, t1, -1
		bnez t1, again
		ebreak
	`, patch)
	for _, width := range []int{1, 2} {
		c := runOn(t, codeMem{newFlatMem(assemble(t, src))}, width)
		// First pass runs the original addi (+1), the second the
		// patched one (+100).
		if c.Regs[5] != 101 {
			t.Errorf("width %d: t0 = %d, want 101 (a stale decode gives 2)", width, c.Regs[5])
		}
		if width == 2 && c.Stats.DualIssued == 0 {
			t.Error("width 2: no dual-issue group retired; pairing path untested")
		}
	}
}

// Two hot PCs decodeSlots words apart share a slot; alternating between
// them must execute each one's own instruction every time.
func TestDecodeCacheAliasedPCs(t *testing.T) {
	const loopA = 4
	far := uint32(loopA + 4*decodeSlots) // aliases loopA's slot
	if (loopA>>2)%decodeSlots != (far>>2)%decodeSlots {
		t.Fatal("test PCs do not alias")
	}
	code := map[uint32]isa.Inst{
		0:         {Op: isa.OpADDI, Rd: 5, Imm: 5},                    // li t0, 5
		loopA:     {Op: isa.OpADDI, Rd: 6, Rs1: 6, Imm: 1},            // addi t1, t1, 1
		loopA + 4: {Op: isa.OpJAL, Imm: int32(far) - (loopA + 4)},     // j far
		far:       {Op: isa.OpADDI, Rd: 7, Rs1: 7, Imm: 3},            // addi t2, t2, 3
		far + 4:   {Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: -1},           // addi t0, t0, -1
		far + 8:   {Op: isa.OpBNE, Rs1: 5, Imm: loopA - int32(far+8)}, // bnez t0, loopA
		far + 12:  {Op: isa.OpEBREAK},
	}
	f := newFlatMem(nil)
	for pc, inst := range code {
		f.words[pc] = encode(t, inst)
	}
	for _, width := range []int{1, 2} {
		c := runOn(t, f, width)
		if c.Regs[5] != 0 || c.Regs[6] != 5 || c.Regs[7] != 15 {
			t.Errorf("width %d: t0/t1/t2 = %d/%d/%d, want 0/5/15",
				width, c.Regs[5], c.Regs[6], c.Regs[7])
		}
		if c.Stats.Instret != 27 {
			t.Errorf("width %d: instret %d, want 27", width, c.Stats.Instret)
		}
	}
}

// An illegal word is never cached: it traps on every fetch, both at a PC
// whose slot is empty (the all-zero word equals an empty slot's tag) and
// at a PC whose cached legal instruction it replaced.
func TestDecodeCacheIllegalTrapsEveryFetch(t *testing.T) {
	for _, illegal := range []uint32{0xffffffff, 0} {
		nop := encode(t, isa.Inst{Op: isa.OpADDI})
		f := newFlatMem([]uint32{nop, nop, illegal})
		c, err := New(0, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		trapsTwice := func(pc uint32) {
			t.Helper()
			for fetch := 1; fetch <= 2; fetch++ {
				c.PC, c.Halted = pc, false
				trap, err := c.Step()
				if err != nil {
					t.Fatal(err)
				}
				if trap.Kind != TrapIllegal || trap.PC != pc || !c.Halted {
					t.Errorf("word %#08x at %#x, fetch %d: trap %v at %#x, halted %v; want an illegal-instruction trap",
						illegal, pc, fetch, trap.Kind, trap.PC, c.Halted)
				}
			}
		}
		trapsTwice(8)
		c.PC, c.Halted = 0, false
		if trap, err := c.Step(); err != nil || trap.Kind != TrapNone {
			t.Fatalf("legal nop: trap %v, err %v", trap.Kind, err)
		}
		f.words[0] = illegal
		trapsTwice(0)
		if c.Stats.Instret != 1 {
			t.Errorf("word %#08x: instret %d, want 1", illegal, c.Stats.Instret)
		}
	}
}
