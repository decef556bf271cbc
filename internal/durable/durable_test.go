package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tempSiblings lists the files WriteFile's temp pattern would leave in dir.
func tempSiblings(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

func TestWriteFileReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := WriteFile(path, []byte("old contents, longer than the new ones\n")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new\n" {
		t.Fatalf("after replace, file holds %q", got)
	}
	if tmps := tempSiblings(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left after success: %v", tmps)
	}
}

func TestWriteFileCreatesMissingParent(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "a", "b", "manifest.json")
	if err := WriteFile(path, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "{}\n" {
		t.Fatalf("file holds %q", got)
	}
	if tmps := tempSiblings(t, filepath.Dir(path)); len(tmps) != 0 {
		t.Fatalf("temp files left after success: %v", tmps)
	}
}

// TestWriteFileFailedRenameCleansUp points WriteFile at an existing,
// non-empty directory, which no rename can replace with a file: the error
// must come back, the directory must be untouched, and the temp file gone.
func TestWriteFileFailedRenameCleansUp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "image.ckpt")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("payload")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if st, err := os.Stat(target); err != nil || !st.IsDir() {
		t.Fatalf("target directory disturbed: %v, %v", st, err)
	}
	if tmps := tempSiblings(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left after a failed rename: %v", tmps)
	}
}
