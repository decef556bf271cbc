// Package ckptio implements the frame-based checkpoint file format used for
// simulator golden images and costed checkpoint accounting (the at_checkpt
// contract from the reference tracer: SNIPPETS.md Snippet 1).
//
// A checkpoint file is a fixed header plus zero or more independent frames.
// Each frame is either RAW or block-compressed (stdlib flate at a fixed
// level) and carries a sequence of length-prefixed, CRC32-checksummed data
// buffers. Frames occupy disjoint byte ranges and never reference each
// other, so N workers can compress (on write) or decompress (on read) the
// frames in parallel while the on-disk bytes — and the restored buffers —
// are bit-identical regardless of worker count.
//
// On-disk layout (all integers little-endian):
//
//	[0:8]    magic "RSTCKPT1"
//	[8:12]   u32 header payload length
//	header payload:
//	    u32 frame count
//	    per frame: u8 style | u32 storedLen | u32 plainLen | u32 bufCount | u32 storedCRC
//	[ .. +4] u32 CRC32 (IEEE) of the header payload
//	frames:  each frame's stored bytes, concatenated in index order
//
// A frame's plain payload is its buffers back to back, each encoded as
// u32 length | bytes | u32 CRC32 (IEEE) of the bytes. For StyleFlate frames
// the stored bytes are the flate stream of that payload; for StyleRaw they
// are the payload itself. storedCRC covers the stored bytes, so corruption
// is detected before decompression is even attempted.
//
// Every read-side failure is a typed error (ErrBadMagic, ErrTruncated,
// ErrCorrupt) — a damaged file can never restore silently wrong state.
package ckptio

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
)

// Style selects a frame's on-disk encoding.
type Style uint8

// Frame styles.
const (
	// StyleRaw stores the frame payload verbatim.
	StyleRaw Style = 0
	// StyleFlate stores the payload as a stdlib flate stream at a fixed
	// compression level, so the bytes are deterministic for fixed input.
	StyleFlate Style = 1
)

// flateLevel is the fixed compression level for StyleFlate frames. It must
// never vary at runtime: the bit-identity contract (same input, same bytes,
// any worker count) depends on every writer compressing identically.
const flateLevel = flate.BestSpeed

// Typed read-side errors. Callers branch on these with errors.Is.
var (
	// ErrBadMagic means the file does not start with the ckptio magic.
	ErrBadMagic = errors.New("ckptio: bad magic")
	// ErrTruncated means the file ends before the header or a frame does.
	ErrTruncated = errors.New("ckptio: truncated file")
	// ErrCorrupt means a CRC mismatch or malformed framing inside an
	// otherwise well-delimited file.
	ErrCorrupt = errors.New("ckptio: corrupt data")
)

var magic = [8]byte{'R', 'S', 'T', 'C', 'K', 'P', 'T', '1'}

const (
	headerFixed  = 12                // magic + header length word
	frameDirSize = 1 + 4 + 4 + 4 + 4 // per-frame directory entry
	maxFrames    = 1 << 20
	maxFrameLen  = 1 << 31
	maxPrealloc  = 1 << 20 // largest inflate buffer sized from a declared length
)

// Stats reports what an Encode/WriteFile produced, for observability
// counters (frames written, compression ratio).
type Stats struct {
	Frames      int
	Buffers     int
	PlainBytes  int64 // frame payload bytes before compression
	StoredBytes int64 // frame bytes on disk
}

// Ratio returns stored/plain — the achieved compression ratio (1.0 = no
// savings). Zero plain bytes report 1.0.
func (s Stats) Ratio() float64 {
	if s.PlainBytes == 0 {
		return 1.0
	}
	return float64(s.StoredBytes) / float64(s.PlainBytes)
}

// FrameWriter accumulates one frame's buffers.
type FrameWriter struct {
	style Style
	bufs  [][]byte
}

// Add appends one data buffer to the frame. The slice is retained until the
// owning Writer encodes; the caller must not mutate it before then.
func (f *FrameWriter) Add(b []byte) { f.bufs = append(f.bufs, b) }

// Writer assembles a checkpoint image frame by frame.
type Writer struct {
	frames []*FrameWriter
	stats  Stats
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Frame appends a new frame with the given style and returns its writer.
// Frames are encoded — and laid out on disk — in the order they are added.
func (w *Writer) Frame(style Style) *FrameWriter {
	f := &FrameWriter{style: style}
	w.frames = append(w.frames, f)
	return f
}

// Stats reports the totals of the most recent Encode/WriteFile.
func (w *Writer) Stats() Stats { return w.stats }

// encodePlain serialises a frame's buffers into its plain payload.
func encodePlain(f *FrameWriter) []byte {
	n := 0
	for _, b := range f.bufs {
		n += 8 + len(b)
	}
	out := make([]byte, 0, n)
	var u [4]byte
	for _, b := range f.bufs {
		binary.LittleEndian.PutUint32(u[:], uint32(len(b)))
		out = append(out, u[:]...)
		out = append(out, b...)
		binary.LittleEndian.PutUint32(u[:], crc32.ChecksumIEEE(b))
		out = append(out, u[:]...)
	}
	return out
}

// encodedFrame is one frame ready for layout.
type encodedFrame struct {
	style    Style
	stored   []byte
	plainLen uint32
	bufCount uint32
	crc      uint32
}

// encodeFrames encodes every frame's stored bytes, fanning the per-frame
// work across workers goroutines. Each frame is encoded independently and
// the results are assembled by index, so the output is identical for any
// worker count.
func (w *Writer) encodeFrames(workers int) ([]encodedFrame, error) {
	out := make([]encodedFrame, len(w.frames))
	err := fanOut(len(w.frames), workers, func(i int) (err error) {
		out[i], err = encodeFrame(w.frames[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut runs fn(i) for every i in [0, n) on at most workers goroutines
// (minimum 1) and returns the error of the lowest failing index, so the
// outcome does not depend on scheduling.
func fanOut(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < max(1, min(workers, n)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeFrame produces one frame's stored bytes.
func encodeFrame(f *FrameWriter) (encodedFrame, error) {
	plain := encodePlain(f)
	ef := encodedFrame{
		style:    f.style,
		plainLen: uint32(len(plain)),
		bufCount: uint32(len(f.bufs)),
	}
	switch f.style {
	case StyleRaw:
		ef.stored = plain
	case StyleFlate:
		var buf sliceBuffer
		zw, err := flate.NewWriter(&buf, flateLevel)
		if err != nil {
			return ef, err
		}
		if _, err := zw.Write(plain); err != nil {
			return ef, err
		}
		if err := zw.Close(); err != nil {
			return ef, err
		}
		ef.stored = buf.b
	default:
		return ef, fmt.Errorf("ckptio: unknown frame style %d", f.style)
	}
	ef.crc = crc32.ChecksumIEEE(ef.stored)
	return ef, nil
}

// sliceBuffer is a minimal io.Writer over an append slice (bytes.Buffer
// without the ring bookkeeping).
type sliceBuffer struct{ b []byte }

func (s *sliceBuffer) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// layout assembles the header for a set of encoded frames.
func layout(frames []encodedFrame) []byte {
	payload := make([]byte, 4+len(frames)*frameDirSize)
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(frames)))
	off := 4
	for _, ef := range frames {
		payload[off] = byte(ef.style)
		binary.LittleEndian.PutUint32(payload[off+1:], uint32(len(ef.stored)))
		binary.LittleEndian.PutUint32(payload[off+5:], ef.plainLen)
		binary.LittleEndian.PutUint32(payload[off+9:], ef.bufCount)
		binary.LittleEndian.PutUint32(payload[off+13:], ef.crc)
		off += frameDirSize
	}
	head := make([]byte, 0, headerFixed+len(payload)+4)
	head = append(head, magic[:]...)
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(len(payload)))
	head = append(head, u[:]...)
	head = append(head, payload...)
	binary.LittleEndian.PutUint32(u[:], crc32.ChecksumIEEE(payload))
	head = append(head, u[:]...)
	return head
}

// tally fills the writer's stats from the encoded frames.
func (w *Writer) tally(frames []encodedFrame) {
	st := Stats{Frames: len(frames)}
	for _, ef := range frames {
		st.Buffers += int(ef.bufCount)
		st.PlainBytes += int64(ef.plainLen)
		st.StoredBytes += int64(len(ef.stored))
	}
	w.stats = st
}

// Encode serialises the image into memory. workers bounds the per-frame
// compression fan-out; the bytes are identical for every worker count.
func (w *Writer) Encode(workers int) ([]byte, error) {
	frames, err := w.encodeFrames(workers)
	if err != nil {
		return nil, err
	}
	w.tally(frames)
	head := layout(frames)
	total := len(head)
	for _, ef := range frames {
		total += len(ef.stored)
	}
	out := make([]byte, 0, total)
	out = append(out, head...)
	for _, ef := range frames {
		out = append(out, ef.stored...)
	}
	return out, nil
}

// WriteFile publishes Encode's bytes at path with durable.WriteFile, so a
// crash never leaves a partial image under the final name.
func (w *Writer) WriteFile(path string, workers int) error {
	data, err := w.Encode(workers)
	if err != nil {
		return err
	}
	return durable.WriteFile(path, data)
}

// frameInfo is one parsed directory entry plus its absolute file offset.
type frameInfo struct {
	style     Style
	storedLen uint32
	plainLen  uint32
	bufCount  uint32
	crc       uint32
	off       int64
}

// File is a parsed checkpoint image open for reading. Frames decode
// independently — ReadFrame is safe to call concurrently from any number of
// goroutines.
type File struct {
	frames []frameInfo
	f      *os.File
}

// Open opens an image file for streaming reads: only the header is read up
// front, and each ReadFrame reads just its own byte range.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c := &File{f: f}
	if err := c.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the underlying file.
func (c *File) Close() error { return c.f.Close() }

// Frames returns the number of frames in the image.
func (c *File) Frames() int { return len(c.frames) }

// FrameStyle returns frame i's encoding style.
func (c *File) FrameStyle(i int) Style { return c.frames[i].style }

// FrameStoredLen returns frame i's on-disk byte count.
func (c *File) FrameStoredLen(i int) int { return int(c.frames[i].storedLen) }

// FramePlainLen returns frame i's payload byte count before compression.
func (c *File) FramePlainLen(i int) int { return int(c.frames[i].plainLen) }

// FrameBuffers returns the number of buffers frame i decodes into.
func (c *File) FrameBuffers(i int) int { return int(c.frames[i].bufCount) }

// readHeader validates the magic, bounds and CRC of the header, parses the
// frame directory, and checks that the frames exactly fill the file.
func (c *File) readHeader() error {
	st, err := c.f.Stat()
	if err != nil {
		return err
	}
	head := make([]byte, headerFixed)
	if _, err := io.ReadFull(c.f, head); err != nil {
		return fmt.Errorf("%w: reading header", ErrTruncated)
	}
	if [8]byte(head) != magic {
		return ErrBadMagic
	}
	hlen := int64(binary.LittleEndian.Uint32(head[8:12]))
	if hlen < 4 || hlen > maxFrames*frameDirSize+4 {
		return fmt.Errorf("%w: header length %d", ErrCorrupt, hlen)
	}
	end := headerFixed + hlen + 4
	if end > st.Size() {
		return fmt.Errorf("%w: header runs past end of file", ErrTruncated)
	}
	rest := make([]byte, hlen+4)
	if _, err := io.ReadFull(c.f, rest); err != nil {
		return fmt.Errorf("%w: reading header payload", ErrTruncated)
	}
	payload := rest[:hlen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[hlen:]) {
		return fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	n := int64(binary.LittleEndian.Uint32(payload[0:4]))
	if n > maxFrames || 4+n*frameDirSize != hlen {
		return fmt.Errorf("%w: frame count %d does not match header length", ErrCorrupt, n)
	}
	c.frames = make([]frameInfo, n)
	off, pos := 4, end
	for i := range c.frames {
		fi := &c.frames[i]
		fi.style = Style(payload[off])
		fi.storedLen = binary.LittleEndian.Uint32(payload[off+1:])
		fi.plainLen = binary.LittleEndian.Uint32(payload[off+5:])
		fi.bufCount = binary.LittleEndian.Uint32(payload[off+9:])
		fi.crc = binary.LittleEndian.Uint32(payload[off+13:])
		if fi.style != StyleRaw && fi.style != StyleFlate {
			return fmt.Errorf("%w: frame %d has unknown style %d", ErrCorrupt, i, fi.style)
		}
		if fi.storedLen > maxFrameLen || fi.plainLen > maxFrameLen {
			return fmt.Errorf("%w: frame %d length out of range", ErrCorrupt, i)
		}
		if fi.style == StyleRaw && fi.storedLen != fi.plainLen {
			return fmt.Errorf("%w: raw frame %d stored %d != plain %d", ErrCorrupt, i, fi.storedLen, fi.plainLen)
		}
		// Every buffer costs at least its length and CRC words, so a count
		// the payload cannot hold is damage, not a reason to allocate.
		if uint64(fi.bufCount)*8 > uint64(fi.plainLen) {
			return fmt.Errorf("%w: frame %d claims %d buffers in %d bytes", ErrCorrupt, i, fi.bufCount, fi.plainLen)
		}
		fi.off = pos
		pos += int64(fi.storedLen)
		off += frameDirSize
	}
	if pos > st.Size() {
		return fmt.Errorf("%w: frames run past end of file", ErrTruncated)
	}
	if pos < st.Size() {
		return fmt.Errorf("%w: %d trailing bytes after last frame", ErrCorrupt, st.Size()-pos)
	}
	return nil
}

// ReadFrame decodes frame i and returns its buffers. Each call touches only
// that frame's byte range, so calls for distinct frames can run in parallel.
func (c *File) ReadFrame(i int) ([][]byte, error) {
	if i < 0 || i >= len(c.frames) {
		return nil, fmt.Errorf("ckptio: frame index %d out of range [0,%d)", i, len(c.frames))
	}
	fi := &c.frames[i]
	stored := make([]byte, fi.storedLen)
	if _, err := c.f.ReadAt(stored, fi.off); err != nil {
		return nil, fmt.Errorf("%w: frame %d: %v", ErrTruncated, i, err)
	}
	if crc32.ChecksumIEEE(stored) != fi.crc {
		return nil, fmt.Errorf("%w: frame %d stored-CRC mismatch", ErrCorrupt, i)
	}
	plain := stored
	if fi.style == StyleFlate {
		// The declared size is only trusted up to maxPrealloc; a frame
		// that really is larger grows by append.
		plain = make([]byte, 0, min(fi.plainLen, maxPrealloc))
		zr := flate.NewReader(&byteReader{b: stored})
		buf := make([]byte, 64<<10)
		for {
			n, err := zr.Read(buf)
			plain = append(plain, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err)
			}
			if len(plain) > int(fi.plainLen) {
				return nil, fmt.Errorf("%w: frame %d inflates past declared size", ErrCorrupt, i)
			}
		}
		zr.Close()
	}
	if len(plain) != int(fi.plainLen) {
		return nil, fmt.Errorf("%w: frame %d payload %d bytes, want %d", ErrCorrupt, i, len(plain), fi.plainLen)
	}
	bufs := make([][]byte, 0, fi.bufCount)
	off := 0
	for len(bufs) < int(fi.bufCount) {
		if off+4 > len(plain) {
			return nil, fmt.Errorf("%w: frame %d buffer %d header runs past payload", ErrCorrupt, i, len(bufs))
		}
		n := int(binary.LittleEndian.Uint32(plain[off:]))
		off += 4
		if n < 0 || off+n+4 > len(plain) {
			return nil, fmt.Errorf("%w: frame %d buffer %d length %d runs past payload", ErrCorrupt, i, len(bufs), n)
		}
		b := plain[off : off+n : off+n]
		off += n
		if crc32.ChecksumIEEE(b) != binary.LittleEndian.Uint32(plain[off:]) {
			return nil, fmt.Errorf("%w: frame %d buffer %d CRC mismatch", ErrCorrupt, i, len(bufs))
		}
		off += 4
		bufs = append(bufs, b)
	}
	if off != len(plain) {
		return nil, fmt.Errorf("%w: frame %d has %d trailing payload bytes", ErrCorrupt, i, len(plain)-off)
	}
	return bufs, nil
}

// ReadAll decodes every frame, fanning the per-frame work across workers
// goroutines, and returns the buffers by frame index. The result is
// identical for any worker count.
func (c *File) ReadAll(workers int) ([][][]byte, error) {
	out := make([][][]byte, len(c.frames))
	err := fanOut(len(c.frames), workers, func(i int) (err error) {
		out[i], err = c.ReadFrame(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// byteReader adapts a byte slice to the flate reader without pulling in
// bytes.Reader's seeking surface.
type byteReader struct{ b []byte }

func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}
