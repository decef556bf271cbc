package campaignio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSlots is the plan size FuzzScanJournal scans against: the seed
// journals use slots below it, so mutated slot fields land on both sides.
const fuzzSlots = 16

// FuzzScanJournal feeds arbitrary bytes to ScanJournal as a journal file.
// Seeds are journals of both framings, whole and cut mid-record or
// mid-segment. Whatever the bytes, the scan must not panic, every failure
// must be ErrCorrupt, a success must end cleanly exactly when ValidLen
// covers the whole file, and rescanning the clean prefix must recover the
// same records without a torn tail.
func FuzzScanJournal(f *testing.F) {
	for _, compress := range []bool{false, true} {
		dir := f.TempDir()
		w, err := OpenWriter(dir, 0, Options{Batch: 2, Compress: compress})
		if err != nil {
			f.Fatal(err)
		}
		for s := 0; s < 5; s++ {
			if err := w.Append(s, payload(s)); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, JournalName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-3])
		f.Add(data[:len(magic)+5])
	}
	f.Add([]byte{})
	f.Add(magic[:5])

	// Each fuzzing process runs the target sequentially, so one scratch
	// directory serves every input.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		scan := func(b []byte) (*ScanResult, error) {
			if err := os.WriteFile(filepath.Join(dir, JournalName), b, 0o644); err != nil {
				t.Fatal(err)
			}
			return ScanJournal(dir, fuzzSlots)
		}
		res, err := scan(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped scan error: %v", err)
			}
			return
		}
		if res.ValidLen > int64(len(data)) || res.Torn != (res.ValidLen < int64(len(data))) {
			t.Fatalf("ValidLen %d torn %v for %d bytes", res.ValidLen, res.Torn, len(data))
		}
		for _, rec := range res.Records {
			if rec.Slot < 0 || rec.Slot >= fuzzSlots {
				t.Fatalf("recovered out-of-plan slot %d", rec.Slot)
			}
		}
		again, err := scan(data[:res.ValidLen])
		if err != nil || again.Torn || len(again.Records) != len(res.Records) {
			t.Fatalf("clean prefix rescans as %+v, %v", again, err)
		}
		for i, rec := range again.Records {
			if rec.Slot != res.Records[i].Slot || !bytes.Equal(rec.Payload, res.Records[i].Payload) {
				t.Fatalf("clean prefix record %d differs", i)
			}
		}
	})
}
