package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// SaveState serialises the page image for a golden checkpoint: a u64 page
// count followed by each mapped page as u64 vpn | u8 perm | PageSize data,
// sorted by vpn so the bytes are deterministic for a given image. The write
// journal is not part of the image — marks are relative to the journal
// length, so a restored image behaves identically starting from an empty
// journal.
func (m *Memory) SaveState() []byte {
	vpns := m.sortedVPNs()
	out := make([]byte, 0, 8+len(vpns)*(9+PageSize))
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], uint64(len(vpns)))
	out = append(out, u[:]...)
	for _, vpn := range vpns {
		p := m.pages[vpn]
		binary.LittleEndian.PutUint64(u[:], vpn)
		out = append(out, u[:]...)
		out = append(out, byte(p.perm))
		out = append(out, p.data[:]...)
	}
	return out
}

// LoadState replaces the page image with one serialised by SaveState. The
// write journal is cleared (there is nothing meaningful to undo into the
// new image); whether journalling is enabled is preserved, so a journalling
// memory keeps journalling from the restored state onward.
func (m *Memory) LoadState(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("mem: state blob too short (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint64(b[:8])
	const rec = 9 + PageSize
	if uint64(len(b)-8) != n*rec {
		return fmt.Errorf("mem: state blob %d bytes does not hold %d pages", len(b), n)
	}
	pages := make(map[uint64]*page, n)
	off := 8
	for i := uint64(0); i < n; i++ {
		vpn := binary.LittleEndian.Uint64(b[off:])
		if _, dup := pages[vpn]; dup {
			return fmt.Errorf("mem: state blob repeats page %#x", vpn)
		}
		p := &page{perm: Perm(b[off+8])}
		copy(p.data[:], b[off+9:off+rec])
		pages[vpn] = p
		off += rec
	}
	m.pages = pages
	m.fetchPage = nil
	m.journal = m.journal[:0]
	return nil
}

// JournalImage serialises the write-journal records at index from onward:
// each as u64 addr | u8 n | n overwritten bytes. This is the undo data one
// checkpoint interval pins — what the paper's gated store buffer holds — so
// its serialised size is the natural unit for pricing checkpoint storage
// traffic. Purely observational: the journal itself is untouched.
func (m *Memory) JournalImage(from Mark) []byte {
	if from < 0 {
		from = 0
	}
	if int(from) >= len(m.journal) {
		return nil
	}
	recs := m.journal[from:]
	out := make([]byte, 0, len(recs)*17)
	var u [8]byte
	for _, rec := range recs {
		binary.LittleEndian.PutUint64(u[:], rec.addr)
		out = append(out, u[:]...)
		out = append(out, rec.n)
		out = append(out, rec.old[:rec.n]...)
	}
	return out
}

// sortedVPNs returns the mapped virtual page numbers in ascending order.
func (m *Memory) sortedVPNs() []uint64 {
	vpns := make([]uint64, 0, len(m.pages))
	for vpn := range m.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	return vpns
}
