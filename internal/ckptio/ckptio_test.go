package ckptio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// buildImage assembles a representative mixed image: an empty frame, a raw
// frame with a zero-length buffer, a compressible flate frame, and a
// high-entropy flate frame (compression that does not pay still round-trips).
func buildImage(t testing.TB) *Writer {
	t.Helper()
	w := NewWriter()
	w.Frame(StyleRaw) // zero-buffer frame
	f1 := w.Frame(StyleRaw)
	f1.Add([]byte("control words"))
	f1.Add(nil) // zero-length buffer
	f1.Add([]byte{0xff})
	f2 := w.Frame(StyleFlate)
	f2.Add(bytes.Repeat([]byte{0xAB, 0, 0, 0}, 4096))
	f2.Add(make([]byte, 8192))
	f3 := w.Frame(StyleFlate)
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, 3000)
	for i := range noise {
		noise[i] = byte(rng.Intn(256))
	}
	f3.Add(noise)
	return w
}

// wantBuffers is what decoding buildImage's output must always yield.
func wantBuffers(t *testing.T, w *Writer) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(w.frames))
	for i, f := range w.frames {
		bufs := make([][]byte, len(f.bufs))
		for j, b := range f.bufs {
			bufs[j] = append([]byte{}, b...)
		}
		out[i] = bufs
	}
	return out
}

// sameBuffers compares decoded buffers against the originals, treating nil
// and empty as equal (a zero-length buffer has no bytes to preserve).
func sameBuffers(a, b [][][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !bytes.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestEncodeIdenticalAcrossWorkersAndModes is the write half of the
// bit-identity contract: the same frames encode to the same bytes for every
// worker count, and WriteFile produces exactly Encode's bytes.
func TestEncodeIdenticalAcrossWorkersAndModes(t *testing.T) {
	base, err := buildImage(t).Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		enc, err := buildImage(t).Encode(workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, enc) {
			t.Fatalf("Encode(%d) differs from Encode(1)", workers)
		}
	}
	for _, workers := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "img.ckpt")
		if err := buildImage(t).WriteFile(path, workers); err != nil {
			t.Fatal(err)
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, disk) {
			t.Fatalf("WriteFile(workers=%d) bytes differ from Encode(1)", workers)
		}
	}
}

// openBytes writes data to a temp file and opens it with Open.
func openBytes(t *testing.T, data []byte) (*File, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(path)
}

// TestDecodeIdenticalAcrossWorkersAndModes is the read half: streaming
// reads (Open) at several worker counts all restore the exact buffers that
// were written.
func TestDecodeIdenticalAcrossWorkersAndModes(t *testing.T) {
	w := buildImage(t)
	want := wantBuffers(t, w)
	data, err := w.Encode(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		fil, err := openBytes(t, data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fil.ReadAll(workers)
		fil.Close()
		if err != nil {
			t.Fatalf("file ReadAll(%d): %v", workers, err)
		}
		if !sameBuffers(want, got) {
			t.Fatalf("file-mode decode (workers=%d) differs from written buffers", workers)
		}
	}
}

func TestStatsReportCompression(t *testing.T) {
	w := buildImage(t)
	if _, err := w.Encode(2); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Frames != 4 {
		t.Fatalf("Frames = %d, want 4", st.Frames)
	}
	if st.Buffers != 6 {
		t.Fatalf("Buffers = %d, want 6", st.Buffers)
	}
	if st.PlainBytes <= 0 || st.StoredBytes <= 0 {
		t.Fatalf("byte totals not populated: %+v", st)
	}
	// The image is dominated by the highly compressible frame, so overall
	// stored < plain.
	if st.StoredBytes >= st.PlainBytes {
		t.Fatalf("expected net compression, got stored=%d plain=%d", st.StoredBytes, st.PlainBytes)
	}
	if r := st.Ratio(); r <= 0 || r >= 1 {
		t.Fatalf("Ratio() = %v, want in (0,1)", r)
	}
}

func TestEmptyImageRoundTrips(t *testing.T) {
	data, err := NewWriter().Encode(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := openBytes(t, data)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Frames() != 0 {
		t.Fatalf("Frames() = %d, want 0", c.Frames())
	}
	if _, err := c.ReadAll(4); err != nil {
		t.Fatal(err)
	}
}

// decodeAllBytes fully decodes data through Open and ReadAll, returning the
// first error, so a flipped byte anywhere in the image is guaranteed to be
// seen.
func decodeAllBytes(t *testing.T, data []byte) error {
	t.Helper()
	fil, err := openBytes(t, data)
	if err != nil {
		return err
	}
	defer fil.Close()
	_, err = fil.ReadAll(2)
	return err
}

// TestFaultInjection flips single bytes in every structural region of the
// file — magic, frame-directory entry, header CRC, compressed frame body,
// raw buffer body, buffer CRC — and asserts each yields a typed error,
// never a silently wrong restore. (Satellite: ckptio fault-injection
// coverage, mirroring the journal torn-tail tests.)
func TestFaultInjection(t *testing.T) {
	w := buildImage(t)
	data, err := w.Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeAllBytes(t, append([]byte{}, data...)); err != nil {
		t.Fatalf("pristine image must decode: %v", err)
	}
	hlen := int(binary.LittleEndian.Uint32(data[8:12]))
	frameStart := headerFixed + hlen + 4
	// Offsets of interesting regions. Frame 1 (raw) starts after frame 0
	// (zero stored bytes); its first buffer body begins 4 bytes in and its
	// CRC follows the 13-byte "control words" payload.
	rawBody := frameStart + 4 + 2                                          // inside "control words"
	rawCRC := frameStart + 4 + 13                                          // first buffer's CRC word
	flateBody := frameStart + (4 + 13 + 4) + (4 + 0 + 4) + (4 + 1 + 4) + 3 // inside frame 2's flate stream
	cases := []struct {
		name string
		off  int
		want error
	}{
		{"magic", 3, ErrBadMagic},
		{"frame directory entry", 12 + 4 + frameDirSize + 2, ErrCorrupt}, // frame 1's storedLen
		{"header CRC field", headerFixed + hlen + 1, ErrCorrupt},
		{"raw buffer body", rawBody, ErrCorrupt},
		{"buffer CRC field", rawCRC, ErrCorrupt},
		{"compressed frame body", flateBody, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]byte{}, data...)
			mut[tc.off] ^= 0x40
			err := decodeAllBytes(t, mut)
			if err == nil {
				t.Fatalf("flipping byte %d (%s) decoded cleanly", tc.off, tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("flipping byte %d (%s): got %v, want %v", tc.off, tc.name, err, tc.want)
			}
		})
	}
}

// TestTruncationDetected cuts the file at several points; every cut is a
// typed error.
func TestTruncationDetected(t *testing.T) {
	data, err := buildImage(t).Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 4, headerFixed, headerFixed + 5, len(data) - 1} {
		err := decodeAllBytes(t, append([]byte{}, data[:n]...))
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}
	// Trailing garbage is corruption, not silently ignored bytes.
	if err := decodeAllBytes(t, append(append([]byte{}, data...), 0xEE)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

// TestUnknownStyleRejected ensures a future style byte fails loudly today.
func TestUnknownStyleRejected(t *testing.T) {
	w := NewWriter()
	w.Frame(Style(9)).Add([]byte("x"))
	if _, err := w.Encode(1); err == nil {
		t.Fatal("encoding an unknown style must fail")
	}
}

func TestReadFrameIndependence(t *testing.T) {
	w := buildImage(t)
	want := wantBuffers(t, w)
	data, err := w.Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := openBytes(t, data)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Read frames out of order; each must stand alone.
	for _, i := range []int{3, 1, 0, 2, 1} {
		got, err := c.ReadFrame(i)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if !sameBuffers([][][]byte{want[i]}, [][][]byte{got}) {
			t.Fatalf("ReadFrame(%d) mismatch", i)
		}
	}
	if _, err := c.ReadFrame(4); err == nil {
		t.Fatal("out-of-range frame index must error")
	}
}

// TestDirectoryClaimsBoundAllocation rewrites frame-directory entries with a
// valid header CRC, so only the claims themselves can give them away: a
// buffer count the frame's payload cannot hold must fail at Open, and a
// flate frame claiming a 2 GiB payload must fail in ReadAll without the
// reader allocating what it claims.
func TestDirectoryClaimsBoundAllocation(t *testing.T) {
	data, err := buildImage(t).Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	hlen := int(binary.LittleEndian.Uint32(data[8:12]))
	entry := func(i int) []byte { return data[headerFixed+4+i*frameDirSize:] }
	patch := func(frame, field int, v uint32) []byte {
		mut := append([]byte{}, data...)
		binary.LittleEndian.PutUint32(mut[headerFixed+4+frame*frameDirSize+field:], v)
		binary.LittleEndian.PutUint32(mut[headerFixed+hlen:], crc32.ChecksumIEEE(mut[headerFixed:headerFixed+hlen]))
		return mut
	}
	if Style(entry(2)[0]) != StyleFlate {
		t.Fatal("frame 2 of buildImage is expected to be a flate frame")
	}
	if _, err := openBytes(t, patch(1, 9, 0xFFFFFFFF)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("impossible buffer count: Open = %v, want ErrCorrupt", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := decodeAllBytes(t, patch(2, 5, 1<<31)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized plain length: got %v, want ErrCorrupt", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("decoding a frame that claims 2 GiB allocated %d bytes", grew)
	}
}
