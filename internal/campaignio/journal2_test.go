package campaignio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeJournal2 creates a campaign dir with a compressed-segment journal.
func writeJournal2(t *testing.T, dir string, m Manifest, slots []int, batch int) {
	t.Helper()
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, 0, Options{Batch: batch, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slots {
		if err := w.Append(s, payload(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal2(t, dir, m, []int{0, 1, 2, 3, 4}, 2)

	raw, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw[:8], magic2[:]) {
		t.Fatalf("journal magic %q, want framing 2", raw[:8])
	}

	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Fatal("clean compressed journal reported torn")
	}
	if len(scan.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(scan.Records))
	}
	for i, rec := range scan.Records {
		if rec.Slot != i || !bytes.Equal(rec.Payload, payload(i)) {
			t.Fatalf("record %d = slot %d payload %q", i, rec.Slot, rec.Payload)
		}
	}
	if scan.ValidLen != int64(len(raw)) {
		t.Fatalf("ValidLen %d, want file size %d", scan.ValidLen, len(raw))
	}
}

// A compressed journal's torn tail is an incomplete trailing segment: the
// scan reports it, and a resuming writer truncates it and appends whole
// segments, exactly as framing 1 does with records.
func TestCompressedJournalTornTailDetectedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal2(t, dir, m, []int{0, 1, 2, 3}, 2)
	path := filepath.Join(dir, JournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the final segment (two segments of two records each; any
	// cut past the first segment's end and before EOF is mid-segment).
	scanWhole, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(raw) - 3
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn {
		t.Fatal("mid-segment truncation not reported as torn")
	}
	if len(scan.Records) != 2 {
		t.Fatalf("recovered %d records from the intact segment, want 2", len(scan.Records))
	}
	if scan.ValidLen >= int64(cut) || scan.ValidLen == scanWhole.ValidLen {
		t.Fatalf("ValidLen %d not at the intact segment boundary", scan.ValidLen)
	}

	// Resume: truncate the tear, append the lost records again.
	w, err := OpenWriter(dir, scan.ValidLen, Options{Batch: 2, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 3} {
		if err := w.Append(s, payload(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if again.Torn || len(again.Records) != 4 {
		t.Fatalf("after repair: torn=%v records=%d", again.Torn, len(again.Records))
	}
}

func TestCompressedJournalCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal2(t, dir, m, []int{0, 1, 2, 3}, 2)
	path := filepath.Join(dir, JournalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the first segment's compressed body (well before
	// the tail, so this can never be read as a torn tail).
	raw[8+8+2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanJournal(dir, m.Slots); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt segment: got %v, want ErrCorrupt", err)
	}
}

// Resuming keeps the existing file's framing no matter what the new writer
// asks for: framing 1 journals stay framing 1 under Compress and vice versa,
// so one file never mixes framings.
func TestResumeKeepsExistingFraming(t *testing.T) {
	dir1 := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal(t, dir1, m, []int{0, 1}, 1)
	scan, err := ScanJournal(dir1, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir1, scan.ValidLen, Options{Batch: 1, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, payload(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(filepath.Join(dir1, JournalName))
	if !bytes.Equal(raw[:8], magic[:]) {
		t.Fatal("resume under Compress rewrote a framing-1 journal")
	}
	again, err := ScanJournal(dir1, m.Slots)
	if err != nil || len(again.Records) != 3 {
		t.Fatalf("mixed-open resume: %v, %d records", err, len(again.Records))
	}

	dir2 := t.TempDir()
	writeJournal2(t, dir2, m, []int{0, 1}, 1)
	scan2, err := ScanJournal(dir2, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWriter(dir2, scan2.ValidLen, Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(2, payload(2)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	raw2, _ := os.ReadFile(filepath.Join(dir2, JournalName))
	if !bytes.Equal(raw2[:8], magic2[:]) {
		t.Fatal("plain resume rewrote a framing-2 journal")
	}
	again2, err := ScanJournal(dir2, m.Slots)
	if err != nil || len(again2.Records) != 3 {
		t.Fatalf("mixed-open resume: %v, %d records", err, len(again2.Records))
	}
}

// Merging shards journalled in different framings produces byte-identical
// merged directories: the framing is an encoding of the same record stream.
func TestMergedBytesIdenticalAcrossFramings(t *testing.T) {
	slots0, slots1 := []int{0, 2, 4, 6}, []int{1, 3, 5, 7}
	mergedDirs := make([]string, 2)
	for i, compress := range []bool{false, true} {
		root := t.TempDir()
		d0, d1 := filepath.Join(root, "s0"), filepath.Join(root, "s1")
		write := writeJournal
		if compress {
			write = writeJournal2
		}
		write(t, d0, testManifest(8, 0, 2), slots0, 3)
		write(t, d1, testManifest(8, 1, 2), slots1, 3)
		man, payloads, err := MergeScan([]string{d0, d1})
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(root, "merged")
		if err := WriteMerged(out, man, payloads); err != nil {
			t.Fatal(err)
		}
		mergedDirs[i] = out
	}
	for _, name := range []string{ManifestName, JournalName} {
		a, err := os.ReadFile(filepath.Join(mergedDirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(mergedDirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between plain-shard and compressed-shard merges", name)
		}
	}
}

// The compressed framing actually compresses: a journal of repetitive JSON
// records lands smaller on disk than its framing-1 twin.
func TestCompressedJournalIsSmaller(t *testing.T) {
	m := testManifest(256, 0, 1)
	slots := make([]int, 256)
	for i := range slots {
		slots[i] = i
	}
	d1, d2 := t.TempDir(), t.TempDir()
	writeJournal(t, d1, m, slots, 64)
	writeJournal2(t, d2, m, slots, 64)
	plain, _ := os.Stat(filepath.Join(d1, JournalName))
	comp, _ := os.Stat(filepath.Join(d2, JournalName))
	if comp.Size() >= plain.Size() {
		t.Fatalf("compressed journal %d bytes >= plain %d", comp.Size(), plain.Size())
	}
}

// S1 regression: a slot journalled twice with identical payloads is the
// benign residue of an interrupted run re-running a batch; merge takes the
// first copy. Differing payloads for one slot remain a hard error.
func TestMergeScanDuplicateIdenticalSlotFirstWins(t *testing.T) {
	root := t.TempDir()
	d0, d1 := filepath.Join(root, "s0"), filepath.Join(root, "s1")
	writeJournal(t, d0, testManifest(4, 0, 2), []int{0, 2, 2}, 1)
	writeJournal(t, d1, testManifest(4, 1, 2), []int{1, 3}, 1)
	man, payloads, err := MergeScan([]string{d0, d1})
	if err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if len(payloads) != 4 {
		t.Fatalf("covered %d slots, want 4", len(payloads))
	}
	if man.ShardCount != 1 {
		t.Fatalf("merged manifest still sharded: %+v", man)
	}
	for s, p := range payloads {
		if !bytes.Equal(p, payload(s)) {
			t.Fatalf("slot %d payload %q", s, p)
		}
	}
}

func TestMergeScanDuplicateDifferingSlotIsCorrupt(t *testing.T) {
	root := t.TempDir()
	d0, d1 := filepath.Join(root, "s0"), filepath.Join(root, "s1")
	m0 := testManifest(4, 0, 2)
	if err := WriteManifest(d0, m0); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(d0, 0, Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		slot int
		p    []byte
	}{{0, payload(0)}, {2, payload(2)}, {2, []byte(`{"slot":2,"differs":true}`)}} {
		if err := w.Append(rec.slot, rec.p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, d1, testManifest(4, 1, 2), []int{1, 3}, 1)
	if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("differing duplicate: got %v, want ErrCorrupt", err)
	}
}

// S2 pin: a batch below one clamps to flush-every-record, and a zero-length
// payload is a legal record that survives the round trip in both framings.
func TestWriterBatchClampAndEmptyPayload(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dir := t.TempDir()
		m := testManifest(4, 0, 1)
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWriter(dir, 0, Options{Batch: -3, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(0, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(1, []byte{}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(2, payload(2)); err != nil {
			t.Fatal(err)
		}
		if got := w.Flushes(); got != 3 {
			t.Fatalf("compress=%v: %d flushes for 3 appends at clamped batch, want 3", compress, got)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		scan, err := ScanJournal(dir, m.Slots)
		if err != nil {
			t.Fatal(err)
		}
		if scan.Torn || len(scan.Records) != 3 {
			t.Fatalf("compress=%v: torn=%v records=%d", compress, scan.Torn, len(scan.Records))
		}
		for i := 0; i < 2; i++ {
			if len(scan.Records[i].Payload) != 0 {
				t.Fatalf("compress=%v: empty payload came back as %q", compress, scan.Records[i].Payload)
			}
		}
		if !bytes.Equal(scan.Records[2].Payload, payload(2)) {
			t.Fatalf("compress=%v: payload mismatch", compress)
		}
	}
}
