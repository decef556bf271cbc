package inject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/ckptio"
	"repro/internal/pipeline"
)

// Golden-image support for both campaign kinds. A golden image captures the
// simulator state at the warm-up boundary so repeat runs — and sharded
// workers — skip the warm-up simulation entirely. Loading an image is
// provably inert: the restored state is bit-identical to the warmed-up one,
// so campaign results are byte-identical either way (the equivalence tests
// run all seven benchmarks through both paths).
//
// The microarchitectural image is pipeline.WriteGoldenImage's frame layout.
// The architectural (VM) image uses the same ckptio container with:
//
//	frame 0    meta (raw): the goldenKey identification string
//	frame 1    cpu (raw): 32 regs | pc | instret | halted | excepted | excKind
//	frames 2.. the memory page image in vmMemChunk-byte slices (flate)

// vmMemChunk is the memory-image slice carried per VM golden frame.
const vmMemChunk = 1 << 18

// invalidGoldenImage reports whether a load failure means the file is not a
// structurally valid ckptio container — a torn copy, bit rot, or a file that
// was never an image. Such a file is treated exactly like an absent one: the
// campaign re-runs the warm-up and atomically rewrites the image (ckptio's
// temp+fsync+rename makes the replacement safe even against concurrent
// shards). Crucially, ckptio surfaces these errors while decoding, before a
// single word of simulator state is touched, so self-healing never runs a
// campaign from a half-restored state. A mismatch error
// (pipeline.ErrGoldenMismatch) is NOT recoverable: the file is a healthy
// image for some other configuration, and silently overwriting it would
// destroy another campaign's warm-up.
func invalidGoldenImage(err error) bool {
	return errors.Is(err, ckptio.ErrBadMagic) ||
		errors.Is(err, ckptio.ErrTruncated) ||
		errors.Is(err, ckptio.ErrCorrupt)
}

// goldenState is one engine's warm-up boundary as a golden image holds it:
// the key naming the warm-up, the walk that reaches it, and the codec that
// saves and restores the state there.
type goldenState interface {
	goldenKey() string
	warm()
	saveGolden(path string, key []byte, workers int) (ckptio.Stats, error)
	loadGolden(path string, key []byte, workers int) error
}

// warmUp brings g to its warm-up boundary: restored from ro.GoldenImage when
// that file holds a valid image, otherwise walked there — and then saved to
// ro.GoldenImage, if set, for the next run. ns is the metric namespace. The
// frame fan-out follows the campaign's worker budget; the bytes are
// identical at any count.
func warmUp(ro *RunOptions, ns string, g goldenState) error {
	if ro.GoldenImage == "" {
		g.warm()
		return nil
	}
	key, workers := []byte(g.goldenKey()), max(1, ro.Workers)
	if _, err := os.Stat(ro.GoldenImage); err == nil {
		err := g.loadGolden(ro.GoldenImage, key, workers)
		if err == nil {
			ro.Obs.Counter(ns + "_golden_image_loaded_total").Inc()
			return nil
		}
		if !invalidGoldenImage(err) {
			return fmt.Errorf("inject: golden image %s: %w", ro.GoldenImage, err)
		}
		// Self-heal: warm up again and rewrite the image.
		ro.Obs.Counter(ns + "_golden_image_invalid_total").Inc()
	} else if !os.IsNotExist(err) {
		return err
	}
	g.warm()
	st, err := g.saveGolden(ro.GoldenImage, key, workers)
	if err != nil {
		return fmt.Errorf("inject: writing golden image %s: %w", ro.GoldenImage, err)
	}
	// The plain/stored byte ratio is the compression factor.
	ro.Obs.Counter(ns + "_golden_image_saved_total").Inc()
	ro.Obs.Counter(ns + "_golden_image_frames_total").Add(int64(st.Frames))
	ro.Obs.Counter(ns + "_golden_image_plain_bytes_total").Add(st.PlainBytes)
	ro.Obs.Counter(ns + "_golden_image_stored_bytes_total").Add(st.StoredBytes)
	return nil
}

// goldenKey identifies the warm-up a uarch golden image captures: exactly
// the inputs that determine the warmed state, nothing more, so one image
// serves every campaign whose warm-up matches (different Points, trial
// counts or shard assignments included).
func (u *uarchCampaign) goldenKey() string {
	c := u.cfg
	return fmt.Sprintf("uarch|bench=%s|seed=%d|scale=%g|warmup=%d|pipe=%+v",
		c.Bench, c.Seed, c.Scale, c.WarmupCycles, u.pcfg)
}

func (u *uarchCampaign) warm() { u.master.RunCycles(u.cfg.WarmupCycles) }

func (u *uarchCampaign) saveGolden(path string, key []byte, workers int) (ckptio.Stats, error) {
	return u.master.WriteGoldenImage(path, key, workers)
}

func (u *uarchCampaign) loadGolden(path string, key []byte, workers int) error {
	return u.master.LoadGoldenImage(path, key, workers)
}

// goldenKey identifies the warm-up boundary a VM golden image captures.
func (v *vmCampaign) goldenKey() string {
	c := v.cfg
	return fmt.Sprintf("vm|bench=%s|seed=%d|scale=%g|warmup=%d",
		c.Bench, c.Seed, c.Scale, c.Warmup)
}

// warm walks the trailing simulator to the warm-up boundary. Injection
// points all lie at or past it, so the walk replays exactly the Steps the
// points loop would have taken; memory-journal records written before the
// first point's snapshot mark are never rewound, only discarded, so a
// restored image and a walk are byte-identical
// (TestVMGoldenImageEquivalence).
func (v *vmCampaign) warm() {
	for v.sim.InstRet < v.cfg.Warmup && !v.sim.Stopped() {
		v.sim.Step()
	}
}

// saveGolden saves the trailing simulator plus its memory image.
func (v *vmCampaign) saveGolden(path string, key []byte, workers int) (ckptio.Stats, error) {
	sim, m := v.sim, v.m
	w := ckptio.NewWriter()
	w.Frame(ckptio.StyleRaw).Add(key)
	cpu := make([]byte, 0, (len(sim.Regs)+2)*8+3)
	for _, r := range append(sim.Regs[:], sim.PC, sim.InstRet) {
		cpu = binary.LittleEndian.AppendUint64(cpu, r)
	}
	cpu = append(cpu, b2u8(sim.Halted), b2u8(sim.Excepted), byte(sim.LastException))
	w.Frame(ckptio.StyleRaw).Add(cpu)
	img := m.SaveState()
	for off := 0; off < len(img) || off == 0; off += vmMemChunk {
		end := min(off+vmMemChunk, len(img))
		w.Frame(ckptio.StyleFlate).Add(img[off:end])
		if end == len(img) {
			break
		}
	}
	if err := w.WriteFile(path, workers); err != nil {
		return ckptio.Stats{}, err
	}
	return w.Stats(), nil
}

// loadGolden restores a saveGolden image into the trailing simulator and its
// memory.
func (v *vmCampaign) loadGolden(path string, key []byte, workers int) error {
	sim, m := v.sim, v.m
	f, err := ckptio.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	frames, err := f.ReadAll(workers)
	if err != nil {
		return err
	}
	if len(frames) < 3 || len(frames[0]) != 1 || len(frames[1]) != 1 {
		return fmt.Errorf("%w: not a vm golden image", pipeline.ErrGoldenMismatch)
	}
	if string(frames[0][0]) != string(key) {
		return fmt.Errorf("%w: image meta %q, want %q", pipeline.ErrGoldenMismatch, frames[0][0], key)
	}
	cpu := frames[1][0]
	want := (len(sim.Regs)+2)*8 + 3
	if len(cpu) != want {
		return fmt.Errorf("%w: cpu frame %d bytes, want %d", pipeline.ErrGoldenMismatch, len(cpu), want)
	}
	var img []byte
	for _, fr := range frames[2:] {
		for _, b := range fr {
			img = append(img, b...)
		}
	}
	if err := m.LoadState(img); err != nil {
		return err
	}
	for i := range sim.Regs {
		sim.Regs[i] = binary.LittleEndian.Uint64(cpu[i*8:])
	}
	n := len(sim.Regs) * 8
	sim.PC = binary.LittleEndian.Uint64(cpu[n:])
	sim.InstRet = binary.LittleEndian.Uint64(cpu[n+8:])
	sim.Halted = cpu[n+16] != 0
	sim.Excepted = cpu[n+17] != 0
	sim.LastException = arch.ExceptionKind(cpu[n+18])
	return nil
}

func b2u8(v bool) byte {
	if v {
		return 1
	}
	return 0
}
