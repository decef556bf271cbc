package campaignio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func testManifest(slots, shardIdx, shardCount int) Manifest {
	return Manifest{
		Version:    FormatVersion,
		Kind:       "uarch",
		ConfigHash: "00000000deadbeef",
		Seed:       42,
		Bench:      "gzip",
		Slots:      slots,
		ShardIndex: shardIdx,
		ShardCount: shardCount,
	}
}

func payload(slot int) []byte { return []byte(fmt.Sprintf(`{"slot":%d}`, slot)) }

// writeJournal creates a campaign dir with records for the given slots.
func writeJournal(t *testing.T, dir string, m Manifest, slots []int, batch int) {
	t.Helper()
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, 0, Options{Batch: batch})
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

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(100, 1, 2)
	m.Aux = []byte(`{"total_bits":123}`)
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.ConfigHash != m.ConfigHash || got.Slots != m.Slots ||
		got.ShardIndex != 1 || got.ShardCount != 2 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	// Aux survives modulo whitespace (the writer re-indents it).
	if err := got.SamePlan(m); err != nil {
		t.Fatalf("round-tripped manifest incompatible with original: %v", err)
	}
	// Rewriting is atomic and idempotent.
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files after atomic write: %v", entries)
	}
}

func TestManifestCompatibility(t *testing.T) {
	base := testManifest(100, 0, 2)
	if err := base.SamePlan(testManifest(100, 1, 2)); err != nil {
		t.Fatalf("sibling shards should share a plan: %v", err)
	}
	if err := base.Resumable(testManifest(100, 1, 2)); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("different shard index should not be resumable, got %v", err)
	}
	diff := testManifest(100, 0, 2)
	diff.Seed = 43
	if err := base.SamePlan(diff); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("seed mismatch undetected: %v", err)
	}
	diff = testManifest(101, 0, 2)
	if err := base.SamePlan(diff); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("slot-count mismatch undetected: %v", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal(t, dir, m, []int{0, 1, 2, 3, 4}, 2)
	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Fatal("clean journal reported torn")
	}
	if len(scan.Records) != 5 {
		t.Fatalf("records = %d, want 5", len(scan.Records))
	}
	for i, rec := range scan.Records {
		if rec.Slot != i || !bytes.Equal(rec.Payload, payload(i)) {
			t.Fatalf("record %d = %d %q", i, rec.Slot, rec.Payload)
		}
	}

	// Append more after a rescan, as a resume does.
	w, err := OpenWriter(dir, scan.ValidLen, Options{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, payload(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err = ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 6 || scan.Records[5].Slot != 5 {
		t.Fatalf("after append: %d records", len(scan.Records))
	}
}

func TestJournalMissingIsEmpty(t *testing.T) {
	scan, err := ScanJournal(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn || len(scan.Records) != 0 || scan.ValidLen != 0 {
		t.Fatalf("missing journal: %+v", scan)
	}
}

func TestJournalTornTailDetectedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal(t, dir, m, []int{0, 1, 2}, 1)
	path := filepath.Join(dir, JournalName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop 3 bytes off the final record: a crash mid-append.
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn {
		t.Fatal("torn tail not detected")
	}
	if len(scan.Records) != 2 {
		t.Fatalf("torn scan recovered %d records, want 2", len(scan.Records))
	}

	// A writer opened at the valid length truncates the tail; the next
	// scan is clean and the re-appended record is intact.
	w, err := OpenWriter(dir, scan.ValidLen, Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, payload(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err = ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn || len(scan.Records) != 3 {
		t.Fatalf("after repair: torn=%t records=%d", scan.Torn, len(scan.Records))
	}
}

func TestJournalChecksumCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	writeJournal(t, dir, m, []int{0, 1, 2}, 1)
	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle record.
	data[len(magic)+8+len(payload(0))+4+8+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanJournal(dir, m.Slots); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted record: err = %v, want ErrCorrupt", err)
	}
}

func TestJournalBadMagicAndSlotBounds(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, JournalName), []byte("NOTAJRNL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanJournal(dir, 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}

	dir2 := t.TempDir()
	writeJournal(t, dir2, testManifest(10, 0, 1), []int{9}, 1)
	if _, err := ScanJournal(dir2, 5); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-plan slot: err = %v", err)
	}
}

func TestMergeScanTwoWay(t *testing.T) {
	d0, d1 := t.TempDir(), t.TempDir()
	writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
	writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 3, 5}, 1)
	merged, payloads, err := MergeScan([]string{d1, d0}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	if merged.ShardCount != 1 || merged.ShardIndex != 0 {
		t.Fatalf("merged manifest not unsharded: %+v", merged)
	}
	if len(payloads) != 6 {
		t.Fatalf("payloads = %d, want 6", len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("slot %d payload %q", i, p)
		}
	}
}

func TestMergeScanTruncatedPrefixOK(t *testing.T) {
	// A deterministically truncated campaign journals a shorter prefix in
	// every shard; merge accepts the prefix.
	d0, d1 := t.TempDir(), t.TempDir()
	writeJournal(t, d0, testManifest(10, 0, 2), []int{0, 2}, 1)
	writeJournal(t, d1, testManifest(10, 1, 2), []int{1, 3}, 1)
	_, payloads, err := MergeScan([]string{d0, d1})
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 4 {
		t.Fatalf("prefix = %d, want 4", len(payloads))
	}
}

func TestMergeScanErrors(t *testing.T) {
	t.Run("missing slot", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 4}, 1) // 2 missing
		writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 3, 5}, 1)
		if _, _, err := MergeScan([]string{d0, d1}); err == nil {
			t.Fatal("hole in slot coverage not detected")
		}
	})
	t.Run("overlapping shard", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
		writeJournal(t, d1, testManifest(6, 0, 2), []int{0, 2, 4}, 1) // same index twice
		if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("duplicate shard index: err = %v", err)
		}
	})
	t.Run("stray slot", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 3}, 1) // 3 belongs to shard 1
		writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 5}, 1)
		if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stray slot: err = %v", err)
		}
	})
	t.Run("plan mismatch", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
		other := testManifest(6, 1, 2)
		other.Seed = 7
		writeJournal(t, d1, other, []int{1, 3, 5}, 1)
		if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("plan mismatch: err = %v", err)
		}
	})
	t.Run("torn shard refused", func(t *testing.T) {
		d0, d1 := t.TempDir(), t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
		writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 3, 5}, 1)
		path := filepath.Join(d1, JournalName)
		info, _ := os.Stat(path)
		if err := os.Truncate(path, info.Size()-2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MergeScan([]string{d0, d1}); !errors.Is(err, ErrTornTail) {
			t.Fatalf("torn shard: err = %v", err)
		}
	})
	t.Run("wrong shard count", func(t *testing.T) {
		d0 := t.TempDir()
		writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
		if _, _, err := MergeScan([]string{d0}); !errors.Is(err, ErrManifestMismatch) {
			t.Fatalf("one dir of a 2-way campaign: err = %v", err)
		}
	})
}

func TestWriteMergedIsResumable(t *testing.T) {
	d0, d1, out := t.TempDir(), t.TempDir(), t.TempDir()
	writeJournal(t, d0, testManifest(6, 0, 2), []int{0, 2, 4}, 1)
	writeJournal(t, d1, testManifest(6, 1, 2), []int{1, 3, 5}, 1)
	merged, payloads, err := MergeScan([]string{d0, d1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMerged(out, merged, payloads); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Resumable(merged); err != nil {
		t.Fatal(err)
	}
	scan, err := ScanJournal(out, merged.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn || len(scan.Records) != 6 {
		t.Fatalf("merged journal: torn=%t records=%d", scan.Torn, len(scan.Records))
	}
	for i, rec := range scan.Records {
		if rec.Slot != i {
			t.Fatalf("merged journal not in slot order at %d: slot %d", i, rec.Slot)
		}
	}
}

func TestWriterUnflushedBatchNotVisible(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(10, 0, 1)
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, 0, Options{Batch: 100}) // batch far larger than appends
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, payload(0)); err != nil {
		t.Fatal(err)
	}
	// Before a flush the record is buffered only; the on-disk tail is clean.
	scan, err := ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 0 || scan.Torn {
		t.Fatalf("unflushed batch leaked: %+v", scan)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.Flushes(); got != 1 {
		t.Fatalf("flushes = %d", got)
	}
	scan, err = ScanJournal(dir, m.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 1 {
		t.Fatalf("after flush: %d records", len(scan.Records))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
