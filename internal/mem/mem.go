// Package mem models the SoC's external memory: a physical byte space with
// a fixed access latency, the backing store of the whole cache hierarchy.
// All caches in this simulator are write-through, so physical memory is
// always authoritative for data; the cache levels exist to model access
// *timing* and the L1.5 sharing semantics.
//
// The byte space is sparse: it is stored in 4 KiB pages, each created
// zeroed on the first store or program load that touches it. A read of an
// untouched page returns zero without creating it, so a SoC costs memory in
// proportion to the pages its programs use, not to its configured size.
package mem

import "fmt"

// PhysAddr is a physical byte address.
type PhysAddr uint32

// Pages are pageSize bytes; a word access never straddles two.
const (
	pageBits = 12
	pageSize = 1 << pageBits
)

type page [pageSize]byte

// Memory is the external DRAM.
type Memory struct {
	size    int
	latency int

	// index maps a page number to 1 + the page's position in arena;
	// 0 marks a page never written, which reads as zero.
	index []int32
	arena []page

	// Reads and Writes count word-granularity accesses that reached
	// memory (i.e. missed every cache level above it).
	Reads, Writes uint64
}

// New returns a memory of the given size and fixed access latency in
// cycles. Size must be a positive multiple of 4.
func New(size int, latency int) (*Memory, error) {
	if size <= 0 || size%4 != 0 {
		return nil, fmt.Errorf("mem: size %d must be a positive multiple of 4", size)
	}
	if latency < 0 {
		return nil, fmt.Errorf("mem: negative latency %d", latency)
	}
	pages := (size + pageSize - 1) / pageSize
	return &Memory{size: size, latency: latency, index: make([]int32, pages)}, nil
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

// Latency returns the fixed access latency in cycles.
func (m *Memory) Latency() int { return m.latency }

func (m *Memory) check(addr PhysAddr, n int) error {
	if int(addr) < 0 || int(addr)+n > m.size {
		return fmt.Errorf("mem: access [%#x,%#x) outside [0,%#x)", addr, int(addr)+n, m.size)
	}
	return nil
}

// peek returns the page holding addr, or nil if it was never written.
func (m *Memory) peek(addr PhysAddr) *page {
	if i := m.index[addr>>pageBits]; i != 0 {
		return &m.arena[i-1]
	}
	return nil
}

// touch returns the page holding addr, creating it zeroed on first use.
func (m *Memory) touch(addr PhysAddr) *page {
	n := addr >> pageBits
	if m.index[n] == 0 {
		m.arena = append(m.arena, page{})
		m.index[n] = int32(len(m.arena))
	}
	return &m.arena[m.index[n]-1]
}

// ReadWord returns the little-endian 32-bit word at addr (4-byte aligned).
func (m *Memory) ReadWord(addr PhysAddr) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("mem: misaligned word read at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	m.Reads++
	p := m.peek(addr)
	if p == nil {
		return 0, nil
	}
	d := p[addr%pageSize:]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

// WriteWord stores a little-endian 32-bit word at addr (4-byte aligned).
func (m *Memory) WriteWord(addr PhysAddr, v uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned word write at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return err
	}
	m.Writes++
	d := m.touch(addr)[addr%pageSize:]
	d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr PhysAddr) (byte, error) {
	if err := m.check(addr, 1); err != nil {
		return 0, err
	}
	m.Reads++
	if p := m.peek(addr); p != nil {
		return p[addr%pageSize], nil
	}
	return 0, nil
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr PhysAddr, v byte) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.Writes++
	m.touch(addr)[addr%pageSize] = v
	return nil
}

// LoadProgram copies a program image to addr (no latency accounting; this
// is the loader, not the simulated bus).
func (m *Memory) LoadProgram(addr PhysAddr, words []uint32) error {
	if err := m.check(addr, 4*len(words)); err != nil {
		return err
	}
	for i, w := range words {
		// addr need not be word-aligned, so a word may straddle pages.
		for b := 0; b < 4; b++ {
			a := addr + PhysAddr(4*i+b)
			m.touch(a)[a%pageSize] = byte(w >> (8 * b))
		}
	}
	return nil
}
