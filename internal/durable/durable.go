// Package durable is the one path by which the simulator publishes a file
// that must survive a crash: campaign manifests, service job records and
// golden images all go through WriteFile.
//
// A reader of a path written here sees either the complete old bytes or the
// complete new bytes, never a mix and never an empty file, whatever instant
// the process or the machine stops at.
package durable

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFile publishes data at path atomically and durably. It creates the
// parent directory if needed, writes data to a temp file in that directory,
// fsyncs and closes it, renames it over path, and fsyncs the directory so
// the rename itself survives a crash. On any failure the temp file is
// removed and the error returned; path keeps its previous contents.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename within it is durable. EINVAL from
// Sync is Linux's answer on a filesystem that cannot fsync a directory, and
// counts as success; every other error, from Open or Sync, is returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if errors.Is(err, syscall.EINVAL) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
