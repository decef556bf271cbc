package service

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaignio"
)

// journalShard writes campaign cid as shard k of 2 under root, covering every
// slot the shard owns.
func journalShard(t *testing.T, root, cid string, k int) {
	t.Helper()
	dir := filepath.Join(root, cid)
	m := campaignio.Manifest{
		Version: campaignio.FormatVersion, Kind: "vm", ConfigHash: "00000000deadbeef",
		Seed: 7, Bench: "gzip", Slots: 4, ShardIndex: k, ShardCount: 2,
	}
	if err := campaignio.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	w, err := campaignio.OpenWriter(dir, 0, campaignio.Options{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s := k; s < m.Slots; s += 2 {
		if err := w.Append(s, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeJobRefusesCampaignMissingFromShardZero: a campaign journalled by
// shard 1 but absent from shard 0 must fail the merge, not vanish from the
// job's results, and nothing may be written under merged/.
func TestMergeJobRefusesCampaignMissingFromShardZero(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Close()
	const id = "job-000001"
	svc.mu.Lock()
	svc.jobs[id] = &Job{ID: id, Spec: JobSpec{Shards: 2}, State: StateCancelled}
	svc.mu.Unlock()
	journalShard(t, svc.st.shardRoot(id, 0), "vm-gzip-a", 0)
	journalShard(t, svc.st.shardRoot(id, 1), "vm-gzip-a", 1)
	journalShard(t, svc.st.shardRoot(id, 1), "vm-gzip-b", 1)

	_, err := svc.mergeJob(id)
	if err == nil || !strings.Contains(err.Error(), "campaign vm-gzip-b exists under") {
		t.Fatalf("mergeJob = %v, want a refusal naming vm-gzip-b", err)
	}
	if _, err := os.Stat(svc.st.mergedDir(id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused merge wrote output: %v", err)
	}
}
