// Package mem implements the sparse, paged virtual memory image used by both
// the architectural simulator and the pipeline model.
//
// The address space is the full 64-bit virtual space with only explicitly
// mapped pages accessible. This sparsity is load-bearing for the paper's
// results: Section 3.1 attributes the high rate of memory-access-fault
// symptoms to the virtual address space being much larger than application
// footprints, so a randomly corrupted pointer usually lands on an unmapped
// page. Accesses to unmapped pages and misaligned accesses return typed
// faults rather than Go errors-with-strings so the simulators can convert
// them into ISA exceptions.
package mem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// PageBits is log2 of the page size.
const PageBits = 13

// PageSize is the size of a virtual page in bytes (8 KiB, as on Alpha).
const PageSize = 1 << PageBits

const offsetMask = PageSize - 1

// Perm describes the allowed access modes of a mapped page.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// FaultKind distinguishes the ways a memory access can fail.
type FaultKind uint8

// Fault kinds.
const (
	// FaultAccess is an access to an unmapped page or one whose
	// permissions forbid the access (the paper's "memory access fault").
	FaultAccess FaultKind = iota + 1
	// FaultAlign is a load or store whose address is not a multiple of
	// the access size.
	FaultAlign
)

// Fault describes a failed memory access.
type Fault struct {
	Kind  FaultKind
	Addr  uint64
	Write bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "access"
	if f.Kind == FaultAlign {
		kind = "alignment"
	}
	mode := "read"
	if f.Write {
		mode = "write"
	}
	return fmt.Sprintf("mem: %s fault on %s at %#x", kind, mode, f.Addr)
}

type page struct {
	data [PageSize]byte
	perm Perm
}

// writeRecord remembers an overwritten byte range for journal undo.
type writeRecord struct {
	addr uint64
	old  [8]byte
	n    uint8
}

// Memory is a sparse paged memory image. It is not safe for concurrent use;
// each simulator owns its image. The zero value is not usable; call New.
type Memory struct {
	pages map[uint64]*page

	// fetchPage caches the page FetchWord last hit and fetchVPN its page
	// number, sparing the map lookup on straight-line fetches. Permission
	// and alignment are re-checked on every hit, so a remap is seen at
	// once; code that drops or replaces page structs must clear it.
	fetchPage *page
	fetchVPN  uint64

	journalOn bool
	journal   []writeRecord
}

// New returns an empty memory image.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Map makes [addr, addr+length) accessible with the given permissions,
// rounding out to page boundaries. Remapping an existing page updates its
// permissions and preserves its contents.
func (m *Memory) Map(addr, length uint64, perm Perm) {
	if length == 0 {
		return
	}
	first := addr >> PageBits
	last := (addr + length - 1) >> PageBits
	for vpn := first; ; vpn++ {
		if p, ok := m.pages[vpn]; ok {
			p.perm = perm
		} else {
			m.pages[vpn] = &page{perm: perm}
		}
		if vpn == last {
			break
		}
	}
}

// Mapped reports whether addr falls on a mapped page allowing the given
// access mode.
func (m *Memory) Mapped(addr uint64, mode Perm) bool {
	p, ok := m.pages[addr>>PageBits]
	return ok && p.perm&mode == mode
}

// Pages returns the number of mapped pages.
func (m *Memory) Pages() int { return len(m.pages) }

// Footprint returns the total mapped bytes.
func (m *Memory) Footprint() uint64 { return uint64(len(m.pages)) * PageSize }

func (m *Memory) lookup(addr uint64, mode Perm, size uint64) (*page, error) {
	if size > 1 && addr&(size-1) != 0 {
		//restorelint:allowalloc -- fault path: allocating the error ends the access; never taken in steady state
		return nil, &Fault{Kind: FaultAlign, Addr: addr, Write: mode == PermWrite}
	}
	p, ok := m.pages[addr>>PageBits]
	if !ok || p.perm&mode != mode {
		//restorelint:allowalloc -- fault path: allocating the error ends the access; never taken in steady state
		return nil, &Fault{Kind: FaultAccess, Addr: addr, Write: mode == PermWrite}
	}
	return p, nil
}

// ReadQ reads a 64-bit word.
func (m *Memory) ReadQ(addr uint64) (uint64, error) {
	p, err := m.lookup(addr, PermRead, 8)
	if err != nil {
		return 0, err
	}
	off := addr & offsetMask
	return binary.LittleEndian.Uint64(p.data[off : off+8]), nil
}

// ReadL reads a 32-bit word.
func (m *Memory) ReadL(addr uint64) (uint32, error) {
	p, err := m.lookup(addr, PermRead, 4)
	if err != nil {
		return 0, err
	}
	off := addr & offsetMask
	return binary.LittleEndian.Uint32(p.data[off : off+4]), nil
}

// WriteQ writes a 64-bit word.
func (m *Memory) WriteQ(addr, val uint64) error {
	p, err := m.lookup(addr, PermWrite, 8)
	if err != nil {
		return err
	}
	off := addr & offsetMask
	if m.journalOn {
		var rec writeRecord
		rec.addr = addr
		rec.n = 8
		copy(rec.old[:], p.data[off:off+8])
		//restorelint:allowalloc -- journal grows to steady-state capacity during warm-up; Reset keeps the backing array
		m.journal = append(m.journal, rec)
	}
	binary.LittleEndian.PutUint64(p.data[off:off+8], val)
	return nil
}

// WriteL writes a 32-bit word.
func (m *Memory) WriteL(addr uint64, val uint32) error {
	p, err := m.lookup(addr, PermWrite, 4)
	if err != nil {
		return err
	}
	off := addr & offsetMask
	if m.journalOn {
		var rec writeRecord
		rec.addr = addr
		rec.n = 4
		copy(rec.old[:], p.data[off:off+4])
		//restorelint:allowalloc -- journal grows to steady-state capacity during warm-up; Reset keeps the backing array
		m.journal = append(m.journal, rec)
	}
	binary.LittleEndian.PutUint32(p.data[off:off+4], val)
	return nil
}

// FetchWord reads a 32-bit instruction word, checking execute permission.
func (m *Memory) FetchWord(addr uint64) (uint32, error) {
	p := m.fetchPage
	if p == nil || addr>>PageBits != m.fetchVPN || addr&3 != 0 || p.perm&PermExec == 0 {
		var err error
		if p, err = m.lookup(addr, PermExec, 4); err != nil {
			return 0, err
		}
		m.fetchPage, m.fetchVPN = p, addr>>PageBits
	}
	off := addr & offsetMask
	return binary.LittleEndian.Uint32(p.data[off : off+4]), nil
}

// WriteBytes copies raw bytes into memory, ignoring write permission (used
// by loaders to populate code and read-only data). The target pages must be
// mapped.
func (m *Memory) WriteBytes(addr uint64, data []byte) error {
	for len(data) > 0 {
		p, ok := m.pages[addr>>PageBits]
		if !ok {
			return &Fault{Kind: FaultAccess, Addr: addr, Write: true}
		}
		off := addr & offsetMask
		n := copy(p.data[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadBytes copies length raw bytes out of memory, ignoring permissions.
func (m *Memory) ReadBytes(addr, length uint64) ([]byte, error) {
	out := make([]byte, 0, length)
	for length > 0 {
		p, ok := m.pages[addr>>PageBits]
		if !ok {
			return nil, &Fault{Kind: FaultAccess, Addr: addr}
		}
		off := addr & offsetMask
		n := PageSize - off
		if n > length {
			n = length
		}
		out = append(out, p.data[off:off+n]...)
		addr += n
		length -= n
	}
	return out, nil
}

// Mark is a journal position returned by Snapshot.
type Mark int

// EnableJournal starts recording old values on every write so the image can
// be rolled back with RestoreTo. The architectural checkpoint store uses
// this to undo memory effects of squashed checkpoint intervals.
func (m *Memory) EnableJournal() {
	m.journalOn = true
}

// DisableJournal stops recording old values and drops any accumulated
// records without undoing them (the current state becomes permanent). The
// checkpoint store uses this when it clears its checkpoints: with nothing
// live to roll back to, continuing to journal every write would grow the
// journal without bound.
func (m *Memory) DisableJournal() {
	m.journalOn = false
	m.journal = m.journal[:0]
}

// JournalLen returns the current number of journal records.
func (m *Memory) JournalLen() int { return len(m.journal) }

// Snapshot returns a mark identifying the current journal position.
// Restoring to the mark undoes every write made after this call. Requires
// EnableJournal.
func (m *Memory) Snapshot() Mark { return Mark(len(m.journal)) }

// RestoreTo rolls memory back to the state it had at the mark, undoing
// journal records newest-first. Marks clamp to the journal bounds: a
// negative mark (a stale mark rebased past a larger DiscardTo) undoes the
// whole journal rather than panicking.
func (m *Memory) RestoreTo(mark Mark) {
	if mark < 0 {
		mark = 0
	}
	for i := len(m.journal) - 1; i >= int(mark); i-- {
		rec := m.journal[i]
		p := m.pages[rec.addr>>PageBits]
		if p == nil {
			continue // page unmapped since write; cannot happen today
		}
		off := rec.addr & offsetMask
		copy(p.data[off:off+uint64(rec.n)], rec.old[:rec.n])
	}
	if int(mark) < len(m.journal) {
		m.journal = m.journal[:mark]
	}
}

// DiscardTo forgets journal records older than the mark without undoing
// them, making the state up to the mark permanent. Used when the oldest
// checkpoint is retired. It returns the number of records dropped; callers
// holding later marks must rebase them by subtracting that amount. Marks
// clamp to the journal bounds, so a negative (over-rebased) mark discards
// nothing instead of panicking.
func (m *Memory) DiscardTo(mark Mark) int {
	n := int(mark)
	if n < 0 {
		n = 0
	}
	if n > len(m.journal) {
		n = len(m.journal)
	}
	m.journal = append(m.journal[:0], m.journal[n:]...)
	return n
}

// Clone returns a deep copy of the memory image (journal state excluded).
func (m *Memory) Clone() *Memory {
	c := New()
	for vpn, p := range m.pages {
		np := &page{perm: p.perm}
		np.data = p.data
		c.pages[vpn] = np
	}
	return c
}

// CopyFrom makes m an exact copy of src's mappings and contents while
// reusing m's existing page allocations. Like Clone, journal state is not
// copied: the journal is cleared and journalling disabled. Campaign clone
// pools use this to reset a trial's dirtied image back to the master's
// without reallocating every page.
//
// CopyFrom is the clone pool's memory re-image path, annotated hot: in
// steady state m and src map identical page sets, so the loop below only
// overwrites existing page structs.
//
//restorelint:hotpath
func (m *Memory) CopyFrom(src *Memory) {
	for vpn := range m.pages {
		if _, ok := src.pages[vpn]; !ok {
			delete(m.pages, vpn)
			if vpn == m.fetchVPN {
				m.fetchPage = nil
			}
		}
	}
	for vpn, sp := range src.pages {
		p, ok := m.pages[vpn]
		if !ok {
			//restorelint:allowalloc -- page missing from the clone: first re-image only; steady-state pools carry identical page sets
			p = &page{}
			m.pages[vpn] = p
		}
		p.perm = sp.perm
		p.data = sp.data
	}
	m.journalOn = false
	m.journal = m.journal[:0]
}

// Equal reports whether two images have identical mappings and contents.
func (m *Memory) Equal(o *Memory) bool {
	if len(m.pages) != len(o.pages) {
		return false
	}
	for vpn, p := range m.pages {
		op, ok := o.pages[vpn]
		if !ok || p.perm != op.perm || p.data != op.data {
			return false
		}
	}
	return true
}

// FirstDifference returns the lowest address whose byte differs between the
// two images, considering only pages mapped in either. The boolean is false
// when the images are identical.
func (m *Memory) FirstDifference(o *Memory) (uint64, bool) {
	vpns := make([]uint64, 0, len(m.pages))
	seen := make(map[uint64]bool, len(m.pages))
	for vpn := range m.pages {
		vpns = append(vpns, vpn)
		seen[vpn] = true
	}
	for vpn := range o.pages {
		if !seen[vpn] {
			vpns = append(vpns, vpn)
		}
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		p, po := m.pages[vpn], o.pages[vpn]
		switch {
		case p == nil:
			return vpn << PageBits, true
		case po == nil:
			return vpn << PageBits, true
		}
		for i := 0; i < PageSize; i++ {
			if p.data[i] != po.data[i] {
				return vpn<<PageBits | uint64(i), true
			}
		}
	}
	return 0, false
}

// Hash returns a digest of all mapped pages' contents and permissions,
// independent of map iteration order.
func (m *Memory) Hash() uint64 {
	vpns := make([]uint64, 0, len(m.pages))
	for vpn := range m.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	h := fnv.New64a()
	var buf [9]byte
	for _, vpn := range vpns {
		p := m.pages[vpn]
		binary.LittleEndian.PutUint64(buf[:8], vpn)
		buf[8] = byte(p.perm)
		h.Write(buf[:])
		h.Write(p.data[:])
	}
	return h.Sum64()
}
