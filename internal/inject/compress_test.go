package inject

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaignio"
	"repro/internal/workload"
)

// journalMagic reads the 8-byte magic of a campaign directory's journal.
func journalMagic(t *testing.T, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, campaignio.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	return raw[:8]
}

// The CompressJournal toggle is inert: an interrupted-then-resumed compressed
// campaign reproduces the one-shot result exactly, and a compressed shard
// merges with an uncompressed one into the same result.
func TestCompressedJournalCampaignEquivalence(t *testing.T) {
	bench := workload.Gzip
	oneShot, err := RunVM(resumeVM(bench))
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeVM(bench)
	cfg.ResumeFrom = dir
	cfg.CompressJournal = true
	cfg.Interrupt, cfg.Progress = interruptAfter(15)
	if _, err := RunVM(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if got := journalMagic(t, dir); !bytes.Equal(got, []byte("RSTJRNL2")) {
		t.Fatalf("journal magic %q, want compressed framing", got)
	}
	cfg = resumeVM(bench)
	cfg.ResumeFrom = dir
	cfg.CompressJournal = true
	resumed, err := RunVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameVMResults(t, "compressed interrupt+resume", oneShot, resumed)

	// One compressed shard, one plain shard; the merge cannot tell.
	dirs := []string{filepath.Join(t.TempDir(), "s0"), filepath.Join(t.TempDir(), "s1")}
	for i, d := range dirs {
		scfg := resumeVM(bench)
		scfg.ResumeFrom = d
		scfg.ShardIndex, scfg.ShardCount = i, 2
		scfg.CompressJournal = i == 0
		if _, err := RunVM(scfg); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := MergeVM(resumeVM(bench), dirs)
	if err != nil {
		t.Fatal(err)
	}
	sameVMResults(t, "mixed-framing shard+merge", oneShot, merged)
}

// TestCompressedUArchResume is the microarchitectural twin, and also checks
// that resuming without the toggle keeps the journal compressed (the file's
// framing wins over the configuration).
func TestCompressedUArchResume(t *testing.T) {
	bench := workload.Gzip
	oneShot, err := RunUArch(resumeUArch(bench))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch(bench)
	cfg.ResumeFrom = dir
	cfg.CompressJournal = true
	cfg.Interrupt, cfg.Progress = interruptAfter(8)
	if _, err := RunUArch(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	cfg = resumeUArch(bench)
	cfg.ResumeFrom = dir // note: CompressJournal unset on the resuming run
	resumed, err := RunUArch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameUArchResults(t, "compressed interrupt+resume", oneShot, resumed)
	if got := journalMagic(t, dir); !bytes.Equal(got, []byte("RSTJRNL2")) {
		t.Fatalf("resume changed journal framing to %q", got)
	}
}

// S1 regression (recovery site): a journal holding one slot twice with
// identical payloads — the residue of a crash after fsync but before the
// in-memory scan position advanced — must resume cleanly, first copy wins.
// The same slot with differing payloads stays ErrCorrupt.
func TestResumeRecoversDuplicateIdenticalSlots(t *testing.T) {
	bench := workload.Gzip
	oneShot, err := RunUArch(resumeUArch(bench))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "campaign")
	cfg := resumeUArch(bench)
	cfg.ResumeFrom = dir
	if _, err := RunUArch(cfg); err != nil {
		t.Fatal(err)
	}

	// Re-append an exact copy of an already-journalled record.
	scan, err := campaignio.ScanJournal(dir, len(oneShot.Trials))
	if err != nil {
		t.Fatal(err)
	}
	dup := scan.Records[3]
	w, err := campaignio.OpenWriter(dir, scan.ValidLen, campaignio.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(dup.Slot, dup.Payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunUArch(cfg)
	if err != nil {
		t.Fatalf("identical duplicate slot rejected on resume: %v", err)
	}
	sameUArchResults(t, "duplicate-slot resume", oneShot, resumed)

	// Now append the same slot with different bytes: that is corruption.
	scan, err = campaignio.ScanJournal(dir, len(oneShot.Trials))
	if err != nil {
		t.Fatal(err)
	}
	w, err = campaignio.OpenWriter(dir, scan.ValidLen, campaignio.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(dup.Slot, []byte(`{"forged":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RunUArch(cfg); !errors.Is(err, campaignio.ErrCorrupt) {
		t.Fatalf("differing duplicate slot resumed with err = %v, want ErrCorrupt", err)
	}
}
