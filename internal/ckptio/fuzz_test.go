package ckptio

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCkptioOpen feeds arbitrary bytes to Open and ReadAll as an image
// file, seeded from buildImage's encoding, an empty image and cuts of both.
// Whatever the bytes, nothing may panic and every failure must be one of
// the typed read errors.
func FuzzCkptioOpen(f *testing.F) {
	for _, w := range []*Writer{buildImage(f), NewWriter()} {
		data, err := w.Encode(1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:headerFixed+2])
	}

	typed := func(err error) bool {
		return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt)
	}
	// Each fuzzing process runs the target sequentially, so one scratch
	// file serves every input.
	path := filepath.Join(f.TempDir(), "img.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(path)
		if err != nil {
			if !typed(err) {
				t.Fatalf("untyped Open error: %v", err)
			}
			return
		}
		defer c.Close()
		if _, err := c.ReadAll(2); err != nil && !typed(err) {
			t.Fatalf("untyped ReadAll error: %v", err)
		}
	})
}
