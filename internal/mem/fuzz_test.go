package mem

import (
	"fmt"
	"testing"
)

// flatMemory is the reference model: the flat byte-array memory the
// paged one replaced, with the same bounds and alignment errors and the
// same Reads/Writes counting.
type flatMemory struct {
	data          []byte
	reads, writes uint64
	touched       map[int]bool // pages a successful store or load wrote
}

func (m *flatMemory) check(addr PhysAddr, n int) error {
	if int(addr) < 0 || int(addr)+n > len(m.data) {
		return fmt.Errorf("mem: access [%#x,%#x) outside [0,%#x)", addr, int(addr)+n, len(m.data))
	}
	return nil
}

func (m *flatMemory) store(addr PhysAddr, b byte) {
	m.data[addr] = b
	m.touched[int(addr)/pageSize] = true
}

func (m *flatMemory) readWord(addr PhysAddr) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("mem: misaligned word read at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	m.reads++
	d := m.data[addr:]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

func (m *flatMemory) writeWord(addr PhysAddr, v uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned word write at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return err
	}
	m.writes++
	for i := 0; i < 4; i++ {
		m.store(addr+PhysAddr(i), byte(v>>(8*i)))
	}
	return nil
}

func (m *flatMemory) loadByte(addr PhysAddr) (byte, error) {
	if err := m.check(addr, 1); err != nil {
		return 0, err
	}
	m.reads++
	return m.data[addr], nil
}

func (m *flatMemory) storeByte(addr PhysAddr, v byte) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.writes++
	m.store(addr, v)
	return nil
}

func (m *flatMemory) loadProgram(addr PhysAddr, words []uint32) error {
	if err := m.check(addr, 4*len(words)); err != nil {
		return err
	}
	for i, w := range words {
		for b := 0; b < 4; b++ {
			m.store(addr+PhysAddr(4*i+b), byte(w>>(8*b)))
		}
	}
	return nil
}

// sameErr reports whether two errors are both nil or carry one message.
func sameErr(a, b error) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// FuzzMemory runs a byte-coded sequence of word and byte reads and
// writes and program loads against the paged memory and the flat
// reference model. Every value, error and Reads/Writes count must match,
// as must the final contents; pages must exist exactly where a store or
// program load wrote. Each operation is six bytes: an opcode, a 16-bit
// address selector taken modulo the memory size plus 16, so some accesses
// run past the end (an opcode with bit 7 set shifts it far out of range
// instead), and a 24-bit value. Memory sizes span one word to three pages
// and four words. The seed corpus in testdata/fuzz/FuzzMemory covers page
// boundaries, the end of memory and far out-of-range addresses.
func FuzzMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, sizeSel uint16, ops []byte) {
		size := 4 * (1 + int(sizeSel)%(3*pageSize/4+4))
		m, err := New(size, 80)
		if err != nil {
			t.Fatal(err)
		}
		ref := &flatMemory{data: make([]byte, size), touched: map[int]bool{}}
		for len(ops) >= 6 {
			op, sel, val := ops[0], uint32(ops[1])|uint32(ops[2])<<8, uint32(ops[3])|uint32(ops[4])<<8|uint32(ops[5])<<16
			ops = ops[6:]
			addr := PhysAddr(sel % uint32(size+16))
			if op&0x80 != 0 {
				addr = PhysAddr(sel) << 16
			}
			switch op % 5 {
			case 0:
				got, gotErr := m.ReadWord(addr)
				want, wantErr := ref.readWord(addr)
				if got != want || !sameErr(gotErr, wantErr) {
					t.Fatalf("ReadWord(%#x) = %#x, %v; reference %#x, %v", addr, got, gotErr, want, wantErr)
				}
			case 1:
				if gotErr, wantErr := m.WriteWord(addr, val*0x101), ref.writeWord(addr, val*0x101); !sameErr(gotErr, wantErr) {
					t.Fatalf("WriteWord(%#x): %v; reference %v", addr, gotErr, wantErr)
				}
			case 2:
				got, gotErr := m.LoadByte(addr)
				want, wantErr := ref.loadByte(addr)
				if got != want || !sameErr(gotErr, wantErr) {
					t.Fatalf("LoadByte(%#x) = %#x, %v; reference %#x, %v", addr, got, gotErr, want, wantErr)
				}
			case 3:
				if gotErr, wantErr := m.StoreByte(addr, byte(val)), ref.storeByte(addr, byte(val)); !sameErr(gotErr, wantErr) {
					t.Fatalf("StoreByte(%#x): %v; reference %v", addr, gotErr, wantErr)
				}
			case 4:
				words := make([]uint32, val%5)
				for i := range words {
					words[i] = val*uint32(i+1) ^ 0xa5a5a5a5
				}
				if gotErr, wantErr := m.LoadProgram(addr, words), ref.loadProgram(addr, words); !sameErr(gotErr, wantErr) {
					t.Fatalf("LoadProgram(%#x, %d words): %v; reference %v", addr, len(words), gotErr, wantErr)
				}
			}
			if m.Reads != ref.reads || m.Writes != ref.writes {
				t.Fatalf("reads/writes %d/%d, reference %d/%d", m.Reads, m.Writes, ref.reads, ref.writes)
			}
		}
		if m.Size() != size {
			t.Fatalf("Size() = %d, want %d", m.Size(), size)
		}
		if len(m.arena) != len(ref.touched) {
			t.Fatalf("%d pages allocated, %d written", len(m.arena), len(ref.touched))
		}
		for a := 0; a < size; a++ {
			got, err := m.LoadByte(PhysAddr(a))
			if err != nil || got != ref.data[a] {
				t.Fatalf("byte %#x = %#x, %v; reference %#x", a, got, err, ref.data[a])
			}
		}
	})
}
