package campaignio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// boundary is a journal length at which the file ends cleanly, with the
// number of records the bytes before it hold.
type boundary struct {
	off     int
	records int
}

// journalWithBoundaries journals slots 0..n-1 in dir, flushing every batch
// records, and returns the journal bytes plus every clean end: the empty
// file, the bare header, and the file size after each flush.
func journalWithBoundaries(t *testing.T, dir string, compress bool, batch, n int) ([]byte, []boundary) {
	t.Helper()
	w, err := OpenWriter(dir, 0, Options{Batch: n + 1, Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, JournalName)
	size := func() int {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return int(st.Size())
	}
	bounds := []boundary{{0, 0}, {size(), 0}}
	for s := 0; s < n; s++ {
		if err := w.Append(s, payload(s)); err != nil {
			t.Fatal(err)
		}
		if (s+1)%batch == 0 || s == n-1 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, boundary{size(), s + 1})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, bounds
}

// TestJournalCutAtEveryOffset truncates a framing-1 and a framing-2 journal
// at every byte offset, as a crash mid-append can. Every cut must scan as
// clean or torn, never as corruption; ValidLen must land on the last whole
// record (framing 1) or segment (framing 2) before the cut, and the
// recovered records must be exactly the ones before it.
func TestJournalCutAtEveryOffset(t *testing.T) {
	const slots = 9
	for _, tc := range []struct {
		name     string
		compress bool
		batch    int // records per flush; in framing 1 every record ends cleanly
	}{
		{"framing1", false, 1},
		{"framing2", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, bounds := journalWithBoundaries(t, t.TempDir(), tc.compress, tc.batch, slots)
			dir := t.TempDir()
			for n := 0; n <= len(data); n++ {
				if err := os.WriteFile(filepath.Join(dir, JournalName), data[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				scan, err := ScanJournal(dir, slots)
				if err != nil {
					t.Fatalf("cut at %d of %d: %v", n, len(data), err)
				}
				want := bounds[0]
				for _, b := range bounds {
					if b.off <= n {
						want = b
					}
				}
				if scan.ValidLen != int64(want.off) || scan.Torn != (n != want.off) {
					t.Fatalf("cut at %d: ValidLen %d torn %v, want %d torn %v",
						n, scan.ValidLen, scan.Torn, want.off, n != want.off)
				}
				if len(scan.Records) != want.records {
					t.Fatalf("cut at %d: %d records, want %d", n, len(scan.Records), want.records)
				}
				for i, rec := range scan.Records {
					if rec.Slot != i || !bytes.Equal(rec.Payload, payload(i)) {
						t.Fatalf("cut at %d: record %d = slot %d %q", n, i, rec.Slot, rec.Payload)
					}
				}
			}
		})
	}
}

// writeShardRoot journals campaign id as shard k of 2 under root, covering
// every slot the shard owns.
func writeShardRoot(t *testing.T, root, id string, k int) {
	t.Helper()
	m := testManifest(6, k, 2)
	m.Bench = id
	var slots []int
	for s := k; s < m.Slots; s += 2 {
		slots = append(slots, s)
	}
	writeJournal(t, filepath.Join(root, id), m, slots, 1)
}

// TestMergeRootsMatchesMergeScan merges two campaigns from two shard roots
// and checks each output is exactly what MergeScan + WriteMerged write.
func TestMergeRootsMatchesMergeScan(t *testing.T) {
	r0, r1, out := t.TempDir(), t.TempDir(), t.TempDir()
	for _, id := range []string{"b", "a"} {
		writeShardRoot(t, r0, id, 0)
		writeShardRoot(t, r1, id, 1)
	}
	ids, err := MergeRoots(out, []string{r0, r1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ids, ",") != "a,b" {
		t.Fatalf("merged ids %v, want [a b]", ids)
	}
	for _, id := range ids {
		man, payloads, err := MergeScan([]string{filepath.Join(r0, id), filepath.Join(r1, id)})
		if err != nil {
			t.Fatal(err)
		}
		ref := filepath.Join(t.TempDir(), id)
		if err := WriteMerged(ref, man, payloads); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{ManifestName, JournalName} {
			got, err := os.ReadFile(filepath.Join(out, id, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(ref, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%s differs from MergeScan + WriteMerged", id, name)
			}
		}
	}
}

// TestMergeRootsRefusesCampaignMissingFromFirstRoot: a campaign journalled
// under a later root but not under roots[0] would otherwise be dropped from
// the merge without a word; it must be refused before anything is written.
func TestMergeRootsRefusesCampaignMissingFromFirstRoot(t *testing.T) {
	r0, r1 := t.TempDir(), t.TempDir()
	out := filepath.Join(t.TempDir(), "merged")
	writeShardRoot(t, r0, "a", 0)
	writeShardRoot(t, r1, "a", 1)
	writeShardRoot(t, r1, "b", 1)
	_, err := MergeRoots(out, []string{r0, r1})
	if err == nil || !strings.Contains(err.Error(), "campaign b exists under") {
		t.Fatalf("MergeRoots = %v, want a refusal naming campaign b", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused merge wrote output: %v", err)
	}
	if _, err := MergeRoots(out, []string{t.TempDir(), r1}); !errors.Is(err, ErrNoCampaign) {
		t.Fatalf("empty first root: got %v, want ErrNoCampaign", err)
	}
}
