package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/durable"
)

// store is the service root's on-disk layout. Everything the daemon must
// survive losing lives here:
//
//	<root>/jobs/<id>/job.json      job spec + state, written atomically
//	<root>/jobs/<id>/shards/<k>/   campaign root for shard k (one
//	                               campaignio directory per campaign)
//	<root>/jobs/<id>/merged/<cid>/ merged campaign directories (done jobs)
//	<root>/golden/                 golden images shared across jobs
//	<root>/serve.addr              the listening address, for clients
//
// job.json is published with durable.WriteFile, like campaign manifests: a
// crash never leaves a partial record, so restart recovery always reads
// either the old state or the new one. serve.addr is discovery state, not
// durable state, and is a plain write.
type store struct {
	root string
}

// AddrFileName is the file under the service root holding the daemon's
// bound address, written on startup so clients can discover it.
const AddrFileName = "serve.addr"

func newStore(root string) (*store, error) {
	if root == "" {
		return nil, fmt.Errorf("service: empty root directory")
	}
	s := &store{root: root}
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *store) jobsDir() string            { return filepath.Join(s.root, "jobs") }
func (s *store) jobDir(id string) string    { return filepath.Join(s.jobsDir(), id) }
func (s *store) jobFile(id string) string   { return filepath.Join(s.jobDir(id), "job.json") }
func (s *store) shardsDir(id string) string { return filepath.Join(s.jobDir(id), "shards") }
func (s *store) mergedDir(id string) string { return filepath.Join(s.jobDir(id), "merged") }
func (s *store) goldenRoot() string         { return filepath.Join(s.root, "golden") }
func (s *store) addrFile() string           { return filepath.Join(s.root, AddrFileName) }
func (s *store) shardRoot(id string, k int) string {
	return filepath.Join(s.shardsDir(id), strconv.Itoa(k))
}

// saveJob persists a job record atomically and durably.
func (s *store) saveJob(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(s.jobFile(j.ID), append(data, '\n'))
}

// loadJob reads one job record.
func (s *store) loadJob(id string) (*Job, error) {
	data, err := os.ReadFile(s.jobFile(id))
	if err != nil {
		return nil, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("service: %s: %w", s.jobFile(id), err)
	}
	if j.ID != id {
		return nil, fmt.Errorf("service: %s: job id %q does not match its directory", s.jobFile(id), j.ID)
	}
	return &j, nil
}

// listJobs loads every job record under the root, in ID order. Directories
// without a job.json (a crash between MkdirAll and the first save) are
// skipped: they hold no committed submission.
func (s *store) listJobs() ([]*Job, error) {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		j, err := s.loadJob(e.Name())
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// nextID allocates the next sequential job ID from what is on disk, so IDs
// stay unique across daemon restarts.
func (s *store) nextID() (string, error) {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return "", err
	}
	max := 0
	for _, e := range entries {
		n, ok := parseJobID(e.Name())
		if ok && n > max {
			max = n
		}
	}
	return fmt.Sprintf("job-%06d", max+1), nil
}

func parseJobID(name string) (int, bool) {
	num, ok := strings.CutPrefix(name, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// writeAddr publishes the daemon's bound address for client discovery.
func (s *store) writeAddr(addr string) error {
	return os.WriteFile(s.addrFile(), []byte(addr+"\n"), 0o644)
}

// removeAddr withdraws the address on clean shutdown.
func (s *store) removeAddr() {
	_ = os.Remove(s.addrFile())
}

// ReadAddr returns the address a daemon serving root listens on.
func ReadAddr(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, AddrFileName))
	if err != nil {
		return "", fmt.Errorf("service: no daemon address under %s (is `restore-sim serve` running?): %w", root, err)
	}
	return strings.TrimSpace(string(data)), nil
}
