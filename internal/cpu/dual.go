package cpu

import "l15cache/internal/isa"

// §3.3: supporting instruction-level parallelism. The L1.5 design is
// compatible with superscalar cores; this file models the processor side of
// that claim — a dual-issue in-order front end. Two consecutive
// instructions retire in one cycle when
//
//   - both are "simple" (ALU, LUI/AUIPC, load or store): control flow,
//     system and L1.5 instructions always issue alone so the Mini-Decoder
//     and trap logic stay single-path;
//   - the second does not read the first's destination (RAW) and they do
//     not write the same register (WAW);
//   - together they carry at most MemPorts memory operations (one D$ port
//     on the baseline core; two when the L1.5's ported front end is
//     deployed).
//
// Run uses StepDual automatically when Width >= 2.

// pairable reports whether an instruction may participate in a dual-issue
// group at all.
func pairable(op isa.Op) bool {
	switch {
	case op.IsBranch(), op.IsL15():
		return false
	case op == isa.OpJAL, op == isa.OpJALR, op == isa.OpECALL,
		op == isa.OpEBREAK, op == isa.OpFENCE, op == isa.OpInvalid:
		return false
	}
	return true
}

// writesReg returns the destination register of the instruction, or 0 when
// it writes none (x0 doubles as "no destination" since writes to it are
// void).
func writesReg(inst isa.Inst) int {
	if inst.Op.IsStore() || inst.Op.IsBranch() {
		return 0
	}
	return inst.Rd
}

// canPair applies the §3.3 grouping rules to two decoded instructions.
func (c *Core) canPair(a, b isa.Inst) bool {
	if !pairable(a.Op) || !pairable(b.Op) {
		return false
	}
	// Structural: memory ports.
	mem := 0
	if a.Op.IsLoad() || a.Op.IsStore() {
		mem++
	}
	if b.Op.IsLoad() || b.Op.IsStore() {
		mem++
	}
	ports := c.MemPorts
	if ports <= 0 {
		ports = 1
	}
	if mem > ports {
		return false
	}
	// Data hazards.
	if rd := writesReg(a); rd != 0 {
		if usesReg(b, rd) {
			return false // RAW
		}
		if writesReg(b) == rd {
			return false // WAW
		}
	}
	return true
}

// StepDual executes one issue group: two instructions when the §3.3 rules
// allow it, otherwise one (with identical semantics to Step).
func (c *Core) StepDual() (Trap, error) {
	if c.Halted {
		return Trap{}, nil
	}
	pc := c.PC

	var trap Trap
	instA, latA, ok := c.fetchDecode(pc, &trap)
	if !ok {
		c.Halted = true
		return trap, nil
	}
	if !pairable(instA.Op) {
		c.chargeFetch(latA)
		return c.executeDecoded(instA, pc)
	}
	instB, latB, ok := c.fetchDecode(pc+4, &trap)
	if !ok || !c.canPair(instA, instB) {
		// Issue A alone; B (or its fault) is next cycle's problem.
		c.chargeFetch(latA)
		return c.executeDecoded(instA, pc)
	}

	// Combined accounting: the two fetches overlap (same or adjacent
	// lines through the same front end), so charge the slower one.
	if latB > latA {
		latA = latB
	}
	c.chargeFetch(latA)
	if c.lastLoadRd > 0 && (usesReg(instA, c.lastLoadRd) || usesReg(instB, c.lastLoadRd)) {
		c.Cycles++
		c.Stats.LoadUseStalls++
	}
	c.lastLoadRd = -1

	c.Cycles++ // one issue cycle for the group
	c.Stats.Instret += 2
	c.Stats.DualIssued++

	var memLat int
	if trap, ok := c.execInGroup(instA, pc, &memLat); !ok {
		return trap, nil
	}
	if trap, ok := c.execInGroup(instB, pc+4, &memLat); !ok {
		return trap, nil
	}
	c.chargeMem(memLat)
	c.PC = pc + 8
	return Trap{}, nil
}

// execInGroup executes one half of a dual-issued group. memLat accumulates
// the slower memory latency across the pair (the group retires together,
// so the two accesses overlap and only the maximum is charged). A method
// rather than a closure: StepDual runs per instruction pair, and a
// capturing closure there is a heap allocation on the step path.
func (c *Core) execInGroup(inst isa.Inst, at uint32, memLat *int) (Trap, bool) {
	rs1 := c.Regs[inst.Rs1]
	rs2 := c.Regs[inst.Rs2]
	switch {
	case inst.Op == isa.OpLUI:
		c.setReg(inst.Rd, uint32(inst.Imm)<<12)
	case inst.Op == isa.OpAUIPC:
		c.setReg(inst.Rd, at+uint32(inst.Imm)<<12)
	case inst.Op.IsLoad():
		v, lat, err := c.loadValue(inst, rs1)
		if err != nil {
			c.Halted = true
			return Trap{Kind: TrapMemFault, PC: at, Info: err.Error()}, false
		}
		if lat > *memLat {
			*memLat = lat
		}
		c.setReg(inst.Rd, v)
		c.lastLoadRd = inst.Rd
	case inst.Op.IsStore():
		lat, err := c.mem.Store(c.ID, rs1+uint32(inst.Imm), storeSize[inst.Op], rs2)
		if err != nil {
			c.Halted = true
			return Trap{Kind: TrapMemFault, PC: at, Info: err.Error()}, false
		}
		if lat > *memLat {
			*memLat = lat
		}
	default:
		c.execALU(inst, rs1, rs2)
	}
	return Trap{}, true
}
