// Package fixture holds the durable-IO shapes the analyzer must accept:
// write-sync-rename publishes (directly and through a named local), the
// buffered-writer flush pattern on a struct field, and a record scan that
// checksums before trusting.
package fixture

import (
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

type Record struct {
	Slot    int
	Payload []byte
}

func publish(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "m.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
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
	return os.Rename(tmp.Name(), filepath.Join(dir, "manifest"))
}

func publishViaLocal(dir string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "t.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	return os.Rename(name, filepath.Join(dir, "final"))
}

type writer struct {
	f   *os.File
	buf []byte
}

func (w *writer) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

func scan(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return out, nil
		}
		payload := make([]byte, 16)
		if _, err := io.ReadFull(f, payload); err != nil {
			return out, nil
		}
		if crc32.ChecksumIEEE(payload) != uint32(hdr[0]) {
			return nil, os.ErrInvalid
		}
		out = append(out, Record{Slot: int(hdr[1]), Payload: payload})
	}
}

// writeFrames mirrors the ckptio container write path: a header plus
// per-frame payloads written to a temp file in a loop, fsynced, closed,
// and atomically renamed into place.
func writeFrames(path string, header []byte, frames [][]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(header); err != nil {
		tmp.Close()
		return err
	}
	for _, fr := range frames {
		if _, err := tmp.Write(fr); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// scanSegments mirrors the compressed-journal read path: each segment's CRC
// covers its header and compressed body and is verified before anything is
// decompressed or trusted.
func scanSegments(f *os.File) ([]Record, error) {
	var out []Record
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return out, nil
		}
		body := make([]byte, 32)
		if _, err := io.ReadFull(f, body); err != nil {
			return out, nil
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[:])
		crc.Write(body)
		if crc.Sum32() != 7 {
			return nil, os.ErrInvalid
		}
		out = append(out, Record{Slot: int(hdr[0]), Payload: body})
	}
}

// decodeRecords mirrors the journal decoder over bytes already read: every
// record's checksum is verified before the record is trusted.
func decodeRecords(data []byte) ([]Record, error) {
	var out []Record
	for len(data) >= 12 {
		if crc32.ChecksumIEEE(data[:8]) != uint32(data[8]) {
			return nil, os.ErrInvalid
		}
		out = append(out, Record{Slot: int(data[0]), Payload: data[4:8]})
		data = data[12:]
	}
	return out, nil
}
