// Package campaignio defines the durable on-disk form of a fault-injection
// campaign: a manifest identifying the trial plan plus an append-only,
// checksummed journal of per-trial results.
//
// The paper's campaigns are statistical — thousands of trials per benchmark
// (Section 5.1) — and at production scale they must survive interruption and
// spread across processes and machines. The format here is what makes that
// safe without giving up the engine's determinism contract: every trial is a
// pure function of the campaign configuration and its (point, trial) slot, so
// a journal is nothing more than a cache of slots already computed. A resumed
// or merged campaign that validates the manifest and re-runs only the missing
// slots is byte-identical to a one-shot serial run.
//
// On-disk layout of a campaign directory:
//
//	manifest.json   plan identity: format version, campaign kind, config
//	                hash, seed, benchmark, slot count, shard coordinates.
//	                Written atomically (durable.WriteFile) before the
//	                first trial result.
//	journal.restj   8-byte magic header, then records. Each record is
//	                slot(uint32 LE) | len(uint32 LE) | payload | crc32(IEEE,
//	                over slot+len+payload). Appended in fsync'd batches.
//
// The magic's trailing byte selects the framing. 'RSTJRNL1' holds the bare
// record stream above. 'RSTJRNL2' (Options.Compress) holds the same record
// stream cut into independently checksummed DEFLATE segments, one per
// fsync'd batch: plainLen(uint32 LE) | compLen(uint32 LE) | deflate bytes |
// crc32(IEEE, over both lengths + deflate bytes). Scans read either framing
// transparently, resume keeps whatever framing the existing file has, and
// merged output is always written in framing 1 — so the compression toggle
// never changes recovered payloads or merged bytes.
//
// Crash-consistency guarantees:
//
//   - A record is visible iff its checksum verifies. A crash mid-append
//     leaves a torn tail (a partial final record or segment); Scan detects
//     it, reports it, and resumable callers truncate it away before
//     appending — the trials it covered simply re-run. A torn tail is never
//     silently treated as data.
//   - A checksum mismatch anywhere before the tail means real corruption
//     (bit rot, concurrent writers, wrong file) and is always a hard error.
//   - The manifest is written before the journal, atomically, so a journal
//     can never exist without the plan that interprets it.
package campaignio

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/durable"
)

// FormatVersion is the current on-disk format version; bumped on any
// incompatible change to the manifest schema or journal framing.
const FormatVersion = 1

// File names inside a campaign directory.
const (
	ManifestName = "manifest.json"
	JournalName  = "journal.restj"
)

// magic opens every journal file; the trailing byte is the framing version:
// '1' for the bare record stream, '2' for compressed segments.
var (
	magic  = [8]byte{'R', 'S', 'T', 'J', 'R', 'N', 'L', '1'}
	magic2 = [8]byte{'R', 'S', 'T', 'J', 'R', 'N', 'L', '2'}
)

// maxPayload bounds one record's payload so a corrupt length field cannot
// drive a giant allocation. Trial records are a few hundred bytes.
const maxPayload = 1 << 20

// maxSegmentPlain bounds one compressed segment's decompressed size, for the
// same reason maxPayload bounds a record. The writer cuts a new segment
// before the buffered batch would cross it, so any record that Append
// accepts always fits.
const maxSegmentPlain = 1 << 24

// Sentinel errors, matched with errors.Is by callers that distinguish
// recoverable from fatal journal damage.
var (
	// ErrCorrupt reports journal damage that resumption must not repair
	// silently: a checksum mismatch, an impossible slot or length, or a
	// bad header.
	ErrCorrupt = errors.New("campaignio: journal corrupt")
	// ErrTornTail reports a partial final record — the expected residue of
	// a crash mid-append. Resumable callers truncate it; merge refuses it.
	ErrTornTail = errors.New("campaignio: torn journal tail")
	// ErrManifestMismatch reports a manifest incompatible with the live
	// configuration or with its sibling shards.
	ErrManifestMismatch = errors.New("campaignio: manifest mismatch")
	// ErrNoCampaign reports an operation aimed at a location that holds no
	// campaign at all: an empty shard-directory list, a nonexistent
	// directory, or a directory without a manifest. The error text lists
	// what was expected versus what was actually found, so a mistyped
	// path is diagnosable from the message alone.
	ErrNoCampaign = errors.New("campaignio: no campaign found")
)

// Manifest identifies a campaign's trial plan. Two runs with equal manifests
// (shard coordinates aside) compute identical trial results for every slot,
// which is what makes resuming and merging sound.
type Manifest struct {
	Version    int    `json:"version"`
	Kind       string `json:"kind"`        // campaign type, e.g. "uarch" or "vm"
	ConfigHash string `json:"config_hash"` // fingerprint of every plan-relevant config field
	Seed       int64  `json:"seed"`
	Bench      string `json:"bench"`
	Slots      int    `json:"slots"` // total (point, trial) slots in the full plan

	// Shard coordinates: this journal holds the slots s with
	// s % ShardCount == ShardIndex. An unsharded campaign is 0 of 1.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`

	// Aux carries campaign-kind-specific aggregates (for the
	// microarchitectural campaign: state-space bit counts and hardening
	// stats) so a merge can rebuild the full result without re-running
	// the simulator. Byte-equal across compatible shards.
	Aux json.RawMessage `json:"aux,omitempty"`
}

// Owns reports whether the manifest's shard is responsible for a slot.
func (m Manifest) Owns(slot int) bool {
	if m.ShardCount <= 1 {
		return true
	}
	return slot%m.ShardCount == m.ShardIndex
}

// SamePlan reports whether two manifests describe the same trial plan
// (everything but the shard index must agree, including the Aux bytes).
func (m Manifest) SamePlan(o Manifest) error {
	switch {
	case m.Version != o.Version:
		return fmt.Errorf("%w: format version %d vs %d", ErrManifestMismatch, m.Version, o.Version)
	case m.Kind != o.Kind:
		return fmt.Errorf("%w: campaign kind %q vs %q", ErrManifestMismatch, m.Kind, o.Kind)
	case m.ConfigHash != o.ConfigHash:
		return fmt.Errorf("%w: config hash %s vs %s", ErrManifestMismatch, m.ConfigHash, o.ConfigHash)
	case m.Seed != o.Seed:
		return fmt.Errorf("%w: seed %d vs %d", ErrManifestMismatch, m.Seed, o.Seed)
	case m.Bench != o.Bench:
		return fmt.Errorf("%w: benchmark %q vs %q", ErrManifestMismatch, m.Bench, o.Bench)
	case m.Slots != o.Slots:
		return fmt.Errorf("%w: %d slots vs %d", ErrManifestMismatch, m.Slots, o.Slots)
	case m.ShardCount != o.ShardCount:
		return fmt.Errorf("%w: shard count %d vs %d", ErrManifestMismatch, m.ShardCount, o.ShardCount)
	case compactJSON(m.Aux) != compactJSON(o.Aux):
		return fmt.Errorf("%w: campaign aggregates differ", ErrManifestMismatch)
	}
	return nil
}

// compactJSON normalises raw JSON for comparison: the manifest writer
// re-indents Aux, so byte equality only holds modulo whitespace.
func compactJSON(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

// Resumable reports whether a journal written under o can be continued by a
// run configured as m: same plan AND same shard.
func (m Manifest) Resumable(o Manifest) error {
	if err := m.SamePlan(o); err != nil {
		return err
	}
	if m.ShardIndex != o.ShardIndex {
		return fmt.Errorf("%w: shard index %d vs %d", ErrManifestMismatch, m.ShardIndex, o.ShardIndex)
	}
	return nil
}

// WriteManifest writes the manifest into dir atomically and durably
// (durable.WriteFile), so a crash never leaves a partial manifest. The
// directory is created if needed.
func WriteManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'))
}

// ReadManifest loads dir's manifest.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Version != FormatVersion {
		return Manifest{}, fmt.Errorf("%w: format version %d (this build reads %d)",
			ErrManifestMismatch, m.Version, FormatVersion)
	}
	if m.ShardCount < 1 || m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount {
		return Manifest{}, fmt.Errorf("%w: shard %d of %d", ErrCorrupt, m.ShardIndex, m.ShardCount)
	}
	return m, nil
}

// HasManifest reports whether dir holds a campaign manifest.
func HasManifest(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil
}

// ListCampaigns returns the campaign IDs — subdirectory names holding a
// manifest — under a shard or merge root, in sorted order. A nonexistent
// root is an empty listing, not an error: to a scanner it holds the same
// campaigns an empty directory does.
func ListCampaigns(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && HasManifest(filepath.Join(root, e.Name())) {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// describeDir summarises what a manifest-less shard directory actually
// contains, for ErrNoCampaign messages.
func describeDir(dir string) string {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return "directory does not exist"
	}
	if err != nil {
		return err.Error()
	}
	if len(entries) == 0 {
		return "directory is empty"
	}
	const maxNames = 6
	names := make([]string, 0, maxNames+1)
	for i, e := range entries {
		if i == maxNames {
			names = append(names, fmt.Sprintf("... %d more", len(entries)-maxNames))
			break
		}
		names = append(names, e.Name())
	}
	return "contains " + strings.Join(names, ", ")
}

// Record is one journaled trial result: the slot it fills and the
// campaign-kind-specific payload (JSON of the trial struct).
type Record struct {
	Slot    int
	Payload []byte
}

// ScanResult is what a journal scan recovered.
type ScanResult struct {
	Records []Record
	// ValidLen is the byte offset of the last fully verified record's
	// end — where an appending writer may safely continue after
	// truncating everything beyond it.
	ValidLen int64
	// Torn is set when bytes after ValidLen form a partial record (crash
	// mid-append). The partial record's slots are NOT in Records.
	Torn bool
}

// ScanJournal reads dir's journal, verifying every record checksum. slots
// bounds valid slot numbers (from the manifest). A missing journal file is
// an empty, clean scan. A torn tail is reported via the result, not an
// error; corruption before the tail is always an error.
func ScanJournal(dir string, slots int) (*ScanResult, error) {
	data, err := os.ReadFile(filepath.Join(dir, JournalName))
	if errors.Is(err, os.ErrNotExist) {
		return &ScanResult{}, nil
	}
	if err != nil {
		return nil, err
	}
	res := &ScanResult{}
	switch {
	case len(data) == 0:
		// A writer was created but never flushed.
		return res, nil
	case len(data) < len(magic):
		res.Torn = true
		return res, nil
	case [8]byte(data) != magic && [8]byte(data) != magic2:
		return nil, fmt.Errorf("%w: bad journal magic %q", ErrCorrupt, data[:len(magic)])
	}
	res.ValidLen = int64(len(magic))
	body := data[len(magic):]
	if [8]byte(data) == magic2 {
		return scanSegments(body, slots, res)
	}
	recs, n, err := decodeRecords(nil, body, slots, res.ValidLen)
	if err != nil {
		return nil, err
	}
	res.Records = recs
	res.ValidLen += int64(n)
	res.Torn = n < len(body) // a partial final record: the crash residue
	return res, nil
}

// scanSegments continues a scan past a framing-2 header: each segment is
// verified whole (checksum over the stored lengths and deflate bytes, exact
// decompressed size), then its plaintext is decoded as the familiar record
// stream. An incomplete final segment is the torn tail; ValidLen only ever
// lands on a segment boundary, so a resuming writer appends whole segments.
func scanSegments(body []byte, slots int, res *ScanResult) (*ScanResult, error) {
	for len(body) > 0 {
		if len(body) < 8 {
			res.Torn = true
			return res, nil
		}
		plainLen := binary.LittleEndian.Uint32(body[0:4])
		compLen := binary.LittleEndian.Uint32(body[4:8])
		if plainLen == 0 || plainLen > maxSegmentPlain || compLen == 0 || compLen > maxSegmentPlain {
			return nil, fmt.Errorf("%w: segment at offset %d: implausible lengths %d/%d",
				ErrCorrupt, res.ValidLen, plainLen, compLen)
		}
		end := 8 + int(compLen) + 4
		if len(body) < end {
			res.Torn = true
			return res, nil
		}
		if crc32.ChecksumIEEE(body[:end-4]) != binary.LittleEndian.Uint32(body[end-4:end]) {
			return nil, fmt.Errorf("%w: segment at offset %d: checksum mismatch", ErrCorrupt, res.ValidLen)
		}
		zr := flate.NewReader(bytes.NewReader(body[8 : end-4]))
		plain, err := io.ReadAll(io.LimitReader(zr, int64(plainLen)+1))
		zr.Close()
		if err != nil || len(plain) != int(plainLen) {
			return nil, fmt.Errorf("%w: segment at offset %d: decompressed %d bytes, want %d",
				ErrCorrupt, res.ValidLen, len(plain), plainLen)
		}
		// The segment checksum already proved the plaintext intact, so a
		// record cut off at its end is corruption, never a torn tail.
		recs, n, err := decodeRecords(res.Records, plain, slots, 0)
		if err == nil && n < len(plain) {
			err = fmt.Errorf("%w: record at offset %d runs past the segment end", ErrCorrupt, n)
		}
		if err != nil {
			return nil, fmt.Errorf("segment at offset %d: %w", res.ValidLen, err)
		}
		res.Records = recs
		res.ValidLen += int64(end)
		body = body[end:]
	}
	return res, nil
}

// decodeRecords appends to recs the framing-1 records at the front of data,
// verifying each record's checksum and slot bound, and returns them with the
// length of the whole records decoded. Whatever follows that length is an
// incomplete record; the caller decides whether that is a torn tail or
// corruption. base is data's offset in the file, for error messages.
// Payloads alias data.
func decodeRecords(recs []Record, data []byte, slots int, base int64) ([]Record, int, error) {
	off := 0
	for len(data)-off >= 8 {
		slot := binary.LittleEndian.Uint32(data[off : off+4])
		length := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > maxPayload {
			return nil, 0, fmt.Errorf("%w: record at offset %d: payload length %d exceeds limit",
				ErrCorrupt, base+int64(off), length)
		}
		end := off + 8 + int(length) + 4
		if len(data) < end {
			break
		}
		if crc32.ChecksumIEEE(data[off:end-4]) != binary.LittleEndian.Uint32(data[end-4:end]) {
			return nil, 0, fmt.Errorf("%w: record at offset %d: checksum mismatch", ErrCorrupt, base+int64(off))
		}
		if int(slot) >= slots {
			return nil, 0, fmt.Errorf("%w: record at offset %d: slot %d outside plan of %d",
				ErrCorrupt, base+int64(off), slot, slots)
		}
		recs = append(recs, Record{Slot: int(slot), Payload: data[off+8 : end-4 : end-4]})
		off = end
	}
	return recs, off, nil
}

// FillSlots files recs into payloads, indexed by slot, on behalf of m's
// shard. Every record must belong to the shard. A slot recorded more than
// once keeps its first copy as long as every copy carries identical bytes —
// the benign residue of a run interrupted after journalling but re-run from
// an older scan; differing copies are corruption. It returns the number of
// slots it filled.
func (m Manifest) FillSlots(payloads [][]byte, recs []Record) (int, error) {
	filled := 0
	for _, rec := range recs {
		if !m.Owns(rec.Slot) {
			return filled, fmt.Errorf("%w: slot %d belongs to shard %d, not %d",
				ErrCorrupt, rec.Slot, rec.Slot%m.ShardCount, m.ShardIndex)
		}
		if prev := payloads[rec.Slot]; prev != nil {
			if !bytes.Equal(prev, rec.Payload) {
				return filled, fmt.Errorf("%w: slot %d recorded twice with differing payloads", ErrCorrupt, rec.Slot)
			}
			continue
		}
		payloads[rec.Slot] = rec.Payload
		filled++
	}
	return filled, nil
}

// Writer appends checksummed records to a journal in fsync'd batches. It is
// safe for concurrent use: campaign workers append trial results as they
// finish. A crash between flushes loses at most the unflushed batch, whose
// trials simply re-run on resume.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	buf      []byte
	pending  int
	batch    int
	compress bool
	flushes  int64
	closed   bool
}

// Options configures a journal writer beyond the defaults.
type Options struct {
	// Batch is the number of records per fsync (minimum 1).
	Batch int
	// Compress selects the framing-2 compressed-segment encoding for a
	// fresh journal: each fsync'd batch is deflated into one checksummed
	// segment. Resuming an existing journal keeps the file's own framing
	// regardless, so a campaign can toggle compression between runs.
	Compress bool
}

// OpenWriter opens dir's journal for appending at validLen (from a prior
// ScanJournal; 0 for a fresh journal), truncating any torn tail beyond it.
func OpenWriter(dir string, validLen int64, opts Options) (*Writer, error) {
	batch := opts.Batch
	if batch < 1 {
		batch = 1
	}
	f, err := os.OpenFile(filepath.Join(dir, JournalName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, batch: batch, compress: opts.Compress}
	if validLen < int64(len(magic)) {
		// Fresh (or header-torn) journal: start over with a clean header
		// in the requested framing.
		hdr := magic
		if opts.Compress {
			hdr = magic2
		}
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// An existing journal's own header decides the framing appended
		// records use — mixing framings within one file would make half
		// the records unreadable.
		var hdr [8]byte
		if _, err := f.ReadAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, err
		}
		switch hdr {
		case magic:
			w.compress = false
		case magic2:
			w.compress = true
		default:
			f.Close()
			return nil, fmt.Errorf("%w: bad journal magic %q", ErrCorrupt, hdr[:])
		}
		// Drop the torn tail, if any, and position at the clean end.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(validLen, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append buffers one record; every batch-th record flushes the buffer and
// fsyncs the file.
func (w *Writer) Append(slot int, payload []byte) error {
	if slot < 0 || len(payload) > maxPayload {
		return fmt.Errorf("campaignio: invalid record (slot %d, %d bytes)", slot, len(payload))
	}
	var rec [8]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(slot))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(rec[:])
	crc.Write(payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("campaignio: append to closed journal")
	}
	if w.compress && len(w.buf) > 0 && len(w.buf)+8+len(payload)+4 > maxSegmentPlain {
		// Records never span segments; cut one early rather than exceed
		// the scanner's decompression bound.
		if err := w.flushLocked(); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, rec[:]...)
	w.buf = append(w.buf, payload...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc.Sum32())
	w.pending++
	if w.pending >= w.batch {
		return w.flushLocked()
	}
	return nil
}

// Flush writes and fsyncs any buffered records, leaving the journal tail
// clean on a record boundary.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	out := w.buf
	if w.compress {
		seg, err := encodeSegment(w.buf)
		if err != nil {
			return err
		}
		out = seg
	}
	if _, err := w.f.Write(out); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	w.pending = 0
	w.flushes++
	return nil
}

// encodeSegment deflates one batch of record bytes into a framing-2 segment.
// The compression level is fixed, so the stored bytes are a deterministic
// function of the records alone.
func encodeSegment(plain []byte) ([]byte, error) {
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(plain); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	seg := make([]byte, 8, 8+comp.Len()+4)
	binary.LittleEndian.PutUint32(seg[0:4], uint32(len(plain)))
	binary.LittleEndian.PutUint32(seg[4:8], uint32(comp.Len()))
	seg = append(seg, comp.Bytes()...)
	crc := crc32.NewIEEE()
	crc.Write(seg)
	return binary.LittleEndian.AppendUint32(seg, crc.Sum32()), nil
}

// Flushes returns how many fsync'd batches the writer has committed.
func (w *Writer) Flushes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushes
}

// Close flushes buffered records and closes the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	ferr := w.flushLocked()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// MergeScan reads one campaign's shard directories and assembles the full
// result payloads. It verifies that every manifest describes the same plan,
// that the shard indices are exactly 0..n-1 for n directories, that every
// record sits in its owning shard (strays are errors), and that the recorded
// slots form a gap-free prefix of the plan (campaigns truncated by a halting
// workload journal a shorter prefix — deterministically the same one in
// every shard). A slot recorded more than once is fine as long as every copy
// carries identical bytes — the normal residue of a run interrupted after
// journalling but re-run from an older scan — and the first copy wins;
// differing copies are corruption. Torn or corrupt journals are hard errors
// here: merging repairs nothing.
//
// It returns the merged (unsharded) manifest and the payloads indexed by
// slot, len == the covered prefix.
func MergeScan(dirs []string) (Manifest, [][]byte, error) {
	if len(dirs) == 0 {
		return Manifest{}, nil, fmt.Errorf("%w: no shard directories to merge (expected at least one campaign directory)",
			ErrNoCampaign)
	}
	manifests := make([]Manifest, len(dirs))
	var noManifest []string
	for i, dir := range dirs {
		m, err := ReadManifest(dir)
		if errors.Is(err, os.ErrNotExist) {
			// Collect every manifest-less directory before failing, so one
			// error names all of them alongside what they actually hold.
			noManifest = append(noManifest, fmt.Sprintf("%s (%s)", dir, describeDir(dir)))
			continue
		}
		if err != nil {
			return Manifest{}, nil, fmt.Errorf("%s: %w", dir, err)
		}
		manifests[i] = m
	}
	if len(noManifest) > 0 {
		return Manifest{}, nil, fmt.Errorf("%w: %d of %d shard directories hold no %s: %s",
			ErrNoCampaign, len(noManifest), len(dirs), ManifestName, strings.Join(noManifest, "; "))
	}
	base := manifests[0]
	if base.ShardCount != len(dirs) {
		return Manifest{}, nil, fmt.Errorf("%w: %d shard directories for a %d-way campaign",
			ErrManifestMismatch, len(dirs), base.ShardCount)
	}
	seenShard := make([]string, base.ShardCount)
	for i, m := range manifests {
		if err := base.SamePlan(m); err != nil {
			return Manifest{}, nil, fmt.Errorf("%s: %w", dirs[i], err)
		}
		if prev := seenShard[m.ShardIndex]; prev != "" {
			return Manifest{}, nil, fmt.Errorf("%w: shard %d appears in both %s and %s",
				ErrManifestMismatch, m.ShardIndex, prev, dirs[i])
		}
		seenShard[m.ShardIndex] = dirs[i]
	}

	payloads := make([][]byte, base.Slots)
	for i, dir := range dirs {
		scan, err := ScanJournal(dir, base.Slots)
		if err != nil {
			return Manifest{}, nil, fmt.Errorf("%s: %w", dir, err)
		}
		if scan.Torn {
			return Manifest{}, nil, fmt.Errorf("%s: %w (resume the shard to repair it before merging)",
				dir, ErrTornTail)
		}
		if _, err := manifests[i].FillSlots(payloads, scan.Records); err != nil {
			return Manifest{}, nil, fmt.Errorf("%s: %w", dir, err)
		}
	}
	covered := len(payloads)
	for covered > 0 && payloads[covered-1] == nil {
		covered--
	}
	// The covered slots must form a gap-free prefix: a hole means a shard
	// is incomplete (e.g. an interrupted run that was never resumed).
	missing := 0
	for slot := 0; slot < covered; slot++ {
		if payloads[slot] == nil {
			missing++
		}
	}
	if missing > 0 {
		return Manifest{}, nil, fmt.Errorf(
			"campaignio: %d of the first %d slots missing (shard incomplete — resume it to completion before merging)",
			missing, covered)
	}

	merged := base
	merged.ShardIndex, merged.ShardCount = 0, 1
	return merged, payloads[:covered], nil
}

// WriteMerged writes a merged campaign directory: the unsharded manifest
// plus a journal holding payloads in slot order. The result is resumable —
// a campaign pointed at it finds every slot complete and re-runs nothing.
func WriteMerged(dir string, m Manifest, payloads [][]byte) error {
	if err := WriteManifest(dir, m); err != nil {
		return err
	}
	w, err := OpenWriter(dir, 0, Options{Batch: 256})
	if err != nil {
		return err
	}
	for slot, p := range payloads {
		if err := w.Append(slot, p); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// MergeRoots merges every campaign journalled under the shard roots — each
// the campaign root of one shard, in any order — into one merged directory
// per campaign under out (MergeScan, then WriteMerged), and returns the
// campaign IDs in sorted order. Every campaign found under any root must also
// exist under roots[0]; that is checked before anything is written. Each
// campaign's shards must together cover a gap-free prefix of its slots, and
// any journal damage aborts the merge: a damaged shard is resumed, never
// patched over.
func MergeRoots(out string, roots []string) ([]string, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("%w: no shard roots to merge", ErrNoCampaign)
	}
	ids, err := ListCampaigns(roots[0])
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no campaign directories under %s", ErrNoCampaign, roots[0])
	}
	known := make(map[string]bool, len(ids))
	for _, id := range ids {
		known[id] = true
	}
	for _, root := range roots[1:] {
		other, err := ListCampaigns(root)
		if err != nil {
			return nil, err
		}
		for _, id := range other {
			if !known[id] {
				return nil, fmt.Errorf("campaign %s exists under %s but not under %s", id, root, roots[0])
			}
		}
	}
	for _, id := range ids {
		dirs := make([]string, len(roots))
		for i, root := range roots {
			dirs[i] = filepath.Join(root, id)
		}
		man, payloads, err := MergeScan(dirs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		if err := WriteMerged(filepath.Join(out, id), man, payloads); err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
	}
	return ids, nil
}
