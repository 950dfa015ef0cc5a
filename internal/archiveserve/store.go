package archiveserve

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/zfp"
)

// StreamSuffix names archive streams in a store directory: a stream
// "demo" lives in <dir>/demo.acs with its sidecar in <dir>/demo.acs.idx.
const StreamSuffix = ".acs"

// rateRungs are the standard rate rungs the manifest predicts sizes for —
// the ZFP ladder clients are expected to browse along.
var rateRungs = []float64{0.5, 1, 2, 4, 8, 16, 32}

// Store serves read-only archive streams from one directory. Streams are
// opened lazily on first touch and stay open (file handle + footer index
// + sidecar in memory, never the payload); all access after open goes
// through ReadAt on the shared handle, so one open stream serves any
// number of concurrent requests.
type Store struct {
	dir string
	reg *codec.Registry

	mu      sync.Mutex
	streams map[string]*stream

	// sidecarRebuilds counts opens that had to rescan the stream because
	// the sidecar was missing, unreadable, or bound to different bytes.
	sidecarRebuilds uint64
}

// OpenStore opens dir as an archive store. Streams are not touched until
// requested; an empty directory is a valid (empty) store.
func OpenStore(dir string, reg *codec.Registry) (*Store, error) {
	if reg == nil {
		reg = codec.Default
	}
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("archiveserve: store: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("archiveserve: %w: store path %q is not a directory", apierr.ErrBadConfig, dir)
	}
	return &Store{dir: dir, reg: reg, streams: make(map[string]*stream)}, nil
}

// List names the streams currently present in the store directory.
func (st *Store) List() ([]string, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("archiveserve: store: %w", err)
	}
	var names []string
	for _, e := range ents {
		if n, ok := strings.CutSuffix(e.Name(), StreamSuffix); ok && !e.IsDir() && streamNameOK(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Close releases every open stream handle.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for _, s := range st.streams {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.streams = make(map[string]*stream)
	return first
}

// streamNameOK keeps stream names path-safe: they are joined into file
// paths, so anything beyond a flat token is rejected before it reaches
// the filesystem.
func streamNameOK(name string) bool {
	if len(name) == 0 || len(name) > 128 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// stream is one open archive: the file handle, the validated reader, the
// footer binding, the sidecar tables, and lazily built layout/manifest
// caches.
type stream struct {
	name      string
	f         *os.File
	size      int64
	sr        *core.StreamReader
	footerCRC uint32
	sc        *sidecar

	mu       sync.Mutex
	layouts  [][]core.FieldLayout // per step, nil until first touched
	manifest *Manifest
	maxRate  map[string]float64 // ZFP fields' stored rate, from step 0
}

// Stream opens (or returns the already-open) named stream.
func (st *Store) Stream(name string) (*stream, error) {
	if !streamNameOK(name) {
		return nil, fmt.Errorf("archiveserve: %w: stream %q", apierr.ErrNotFound, name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.streams[name]; ok {
		return s, nil
	}
	s, rebuilt, err := openStream(filepath.Join(st.dir, name+StreamSuffix), name, st.reg)
	if err != nil {
		return nil, err
	}
	if rebuilt {
		st.sidecarRebuilds++
	}
	st.streams[name] = s
	return s, nil
}

func openStream(path, name string, reg *codec.Registry) (_ *stream, rebuilt bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, fmt.Errorf("archiveserve: %w: stream %q", apierr.ErrNotFound, name)
		}
		return nil, false, fmt.Errorf("archiveserve: stream %q: %w", name, err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("archiveserve: stream %q: %w", name, err)
	}
	sr, err := core.OpenStreamWith(f, fi.Size(), reg)
	if err != nil {
		return nil, false, fmt.Errorf("archiveserve: stream %q: %w", name, err)
	}
	crc, err := footerRegionCRC(f, fi.Size())
	if err != nil {
		return nil, false, fmt.Errorf("archiveserve: stream %q: %w", name, err)
	}
	s := &stream{
		name: name, f: f, size: fi.Size(), sr: sr, footerCRC: crc,
		layouts: make([][]core.FieldLayout, sr.Steps()),
		maxRate: make(map[string]float64),
	}
	// Load the sidecar if it binds to this exact stream; otherwise rebuild
	// by scanning and persist the result (best effort — a read-only store
	// still serves, it just rescans on every open).
	if data, rerr := os.ReadFile(path + SidecarSuffix); rerr == nil {
		if sc, perr := parseSidecar(data); perr == nil && sc.footerCRC == crc && len(sc.steps) == sr.Steps() {
			s.sc = sc
		}
	}
	if s.sc == nil {
		sc, berr := buildSidecar(f, sr, crc)
		if berr != nil {
			return nil, false, fmt.Errorf("archiveserve: stream %q: %w", name, berr)
		}
		s.sc = sc
		rebuilt = true
		_ = os.WriteFile(path+SidecarSuffix, encodeSidecar(sc), 0o644)
	}
	return s, rebuilt, nil
}

// Steps returns the stream's step count.
func (s *stream) Steps() int { return s.sr.Steps() }

// layout returns step i's structural map, cached after the first read.
func (s *stream) layout(step int) ([]core.FieldLayout, error) {
	if step < 0 || step >= s.sr.Steps() {
		return nil, fmt.Errorf("archiveserve: %w: stream %q step %d (have %d)", apierr.ErrNotFound, s.name, step, s.sr.Steps())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.layouts[step] == nil {
		ls, err := s.sr.StepLayout(step)
		if err != nil {
			return nil, err
		}
		s.layouts[step] = ls
	}
	return s.layouts[step], nil
}

// fieldLayout locates one field of one step.
func (s *stream) fieldLayout(step int, field string) (*core.FieldLayout, error) {
	ls, err := s.layout(step)
	if err != nil {
		return nil, err
	}
	for i := range ls {
		if ls[i].Name == field {
			return &ls[i], nil
		}
	}
	return nil, fmt.Errorf("archiveserve: %w: stream %q step %d has no field %q", apierr.ErrNotFound, s.name, step, field)
}

// readRange reads one absolute byte range of the stream file.
func (s *stream) readRange(off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("archiveserve: stream %q: %w", s.name, err)
	}
	return buf, nil
}

// fieldMaxRate returns the stored ZFP rate of a field (the rate ceiling
// lower-rate requests truncate toward), parsed once from step 0's first
// partition header and cached. Non-ZFP fields return 0.
func (s *stream) fieldMaxRate(field string) (float64, error) {
	s.mu.Lock()
	if r, ok := s.maxRate[field]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()
	fl, err := s.fieldLayout(0, field)
	if err != nil {
		return 0, err
	}
	rate := 0.0
	if len(fl.Partitions) > 0 && fl.Partitions[0].Codec == codec.ZFP {
		body, err := s.readRange(fl.Partitions[0].BodyOffset, fl.Partitions[0].BodyLength)
		if err != nil {
			return 0, err
		}
		c, err := zfp.Parse(body)
		if err != nil {
			return 0, fmt.Errorf("archiveserve: stream %q field %q: %w", s.name, field, err)
		}
		rate = c.Rate
	}
	s.mu.Lock()
	s.maxRate[field] = rate
	s.mu.Unlock()
	return rate, nil
}

// splice assembles the field's v2 archive at the given (lower) rate by
// bit-prefix splicing every partition out of the stored max-rate stream —
// byte-identical to compressing at that rate directly, with zero
// recompression: each partition is zfp.Parse + sidecar table +
// TruncateToRate, and the archive envelope is rebuilt by the same
// CompressedField.Bytes used at write time.
func (s *stream) splice(step int, fl *core.FieldLayout, rate float64) ([]byte, error) {
	fi := s.sc.field(step, fl.Name)
	if fi == nil || len(fi.starts) != len(fl.Partitions) {
		return nil, fmt.Errorf("archiveserve: %w: stream %q step %d field %q missing from sidecar", apierr.ErrCorruptArchive, s.name, step, fl.Name)
	}
	cf := &core.CompressedField{
		Nx: fl.Nx, Ny: fl.Ny, Nz: fl.Nz,
		PartitionDim: fl.PartitionDim,
		Codec:        codec.ZFP,
		Parts:        make([]codec.Frame, 0, len(fl.Partitions)),
	}
	var scratch zfp.Scratch
	for p, pl := range fl.Partitions {
		if pl.Codec != codec.ZFP {
			return nil, fmt.Errorf("archiveserve: %w: field %q partition %d is %q, rate slicing is a zfp property", apierr.ErrBadConfig, fl.Name, p, pl.Codec)
		}
		body, err := s.readRange(pl.BodyOffset, pl.BodyLength)
		if err != nil {
			return nil, err
		}
		c, err := zfp.Parse(body)
		if err != nil {
			return nil, fmt.Errorf("archiveserve: stream %q field %q partition %d: %w", s.name, fl.Name, p, err)
		}
		ix, err := zfp.NewIndexed(c, fi.starts[p])
		if err != nil {
			return nil, fmt.Errorf("archiveserve: stream %q field %q partition %d: %w", s.name, fl.Name, p, err)
		}
		tc, err := ix.TruncateToRate(rate, &scratch)
		if err != nil {
			return nil, err
		}
		cf.Parts = append(cf.Parts, codec.WrapZFP(tc))
	}
	return cf.Bytes(), nil
}

// Manifest describes one stream to clients: what steps and fields exist,
// which are progressive, and the exact byte sizes PredictSize derives for
// the standard rate rungs — everything a reader needs to plan a browse
// without fetching a byte of payload.
type Manifest struct {
	Stream string `json:"stream"`
	Steps  int    `json:"steps"`
	// ETag is the stream-wide validator (footer checksum); every
	// representation ETag of this stream embeds it.
	ETag   string          `json:"etag"`
	Fields []FieldManifest `json:"fields"`
}

// FieldManifest describes one field (geometry from step 0; steps of one
// stream share a layout).
type FieldManifest struct {
	Name         string `json:"name"`
	Codec        string `json:"codec"`
	Nx           int    `json:"nx"`
	Ny           int    `json:"ny"`
	Nz           int    `json:"nz"`
	PartitionDim int    `json:"partition_dim"`
	// StoredBytes is the field's archived payload size at step 0.
	StoredBytes int64 `json:"stored_bytes"`
	// Progressive marks ZFP fields servable at any ?rate up to MaxRate.
	Progressive bool    `json:"progressive"`
	MaxRate     float64 `json:"max_rate,omitempty"`
	// Rungs are exact predicted sizes at the standard rate rungs
	// (PredictSize over the sidecar tables — no decompression involved).
	Rungs []RungSize `json:"rungs,omitempty"`
}

// RungSize is one rate rung's exact serialized archive size.
type RungSize struct {
	Rate  float64 `json:"rate"`
	Bytes int64   `json:"bytes"`
}

// Manifest builds (once) and returns the stream's manifest.
func (s *stream) Manifest() (*Manifest, error) {
	s.mu.Lock()
	m := s.manifest
	s.mu.Unlock()
	if m != nil {
		return m, nil
	}
	if s.sr.Steps() == 0 {
		m = &Manifest{Stream: s.name, Steps: 0, ETag: streamETag(s.footerCRC)}
		s.mu.Lock()
		s.manifest = m
		s.mu.Unlock()
		return m, nil
	}
	layouts, err := s.layout(0)
	if err != nil {
		return nil, err
	}
	m = &Manifest{Stream: s.name, Steps: s.sr.Steps(), ETag: streamETag(s.footerCRC)}
	for i := range layouts {
		fl := &layouts[i]
		fm := FieldManifest{
			Name: fl.Name, Nx: fl.Nx, Ny: fl.Ny, Nz: fl.Nz,
			PartitionDim: fl.PartitionDim, StoredBytes: fl.ArchiveLength,
		}
		if len(fl.Partitions) > 0 {
			fm.Codec = string(fl.Partitions[0].Codec)
		}
		if codec.ID(fm.Codec) == codec.ZFP {
			fm.Progressive = true
			if err := s.fillRungs(fl, &fm); err != nil {
				return nil, err
			}
		}
		m.Fields = append(m.Fields, fm)
	}
	s.mu.Lock()
	s.manifest = m
	s.mu.Unlock()
	return m, nil
}

// fillRungs computes the exact archive size at each standard rate rung:
// the stored envelope overhead (header + per-partition length prefixes +
// frame envelopes) plus PredictSize of every partition at the rung.
func (s *stream) fillRungs(fl *core.FieldLayout, fm *FieldManifest) error {
	fi := s.sc.field(0, fl.Name)
	if fi == nil || len(fi.starts) != len(fl.Partitions) {
		return fmt.Errorf("archiveserve: %w: stream %q field %q missing from sidecar", apierr.ErrCorruptArchive, s.name, fl.Name)
	}
	// Envelope overhead = archived length minus the codec-native bodies
	// and their length prefixes and frame headers, which is invariant
	// under rate truncation.
	overhead := fl.ArchiveLength
	for _, pl := range fl.Partitions {
		overhead -= 4 + int64(codec.FrameOverhead(pl.Codec)) + pl.BodyLength
	}
	var ixs []*zfp.Indexed
	for p, pl := range fl.Partitions {
		body, err := s.readRange(pl.BodyOffset, pl.BodyLength)
		if err != nil {
			return err
		}
		c, err := zfp.Parse(body)
		if err != nil {
			return fmt.Errorf("archiveserve: stream %q field %q partition %d: %w", s.name, fl.Name, p, err)
		}
		if fm.MaxRate == 0 {
			fm.MaxRate = c.Rate
		}
		ix, err := zfp.NewIndexed(c, fi.starts[p])
		if err != nil {
			return fmt.Errorf("archiveserve: stream %q field %q partition %d: %w", s.name, fl.Name, p, err)
		}
		ixs = append(ixs, ix)
	}
	for _, rung := range rateRungs {
		if rung >= fm.MaxRate {
			// The stored rate itself is not a rung: a request at or above
			// it serves the stored bytes, whose size is StoredBytes.
			break
		}
		total := overhead
		for _, ix := range ixs {
			n, err := ix.PredictSize(rung)
			if err != nil {
				return err
			}
			total += 4 + int64(codec.FrameOverhead(codec.ZFP)) + int64(n)
		}
		fm.Rungs = append(fm.Rungs, RungSize{Rate: rung, Bytes: total})
	}
	return nil
}

// streamETag renders the stream-wide validator.
func streamETag(crc uint32) string { return fmt.Sprintf("%08x", crc) }

// fieldETag derives a representation's strong ETag: stream footer
// checksum + step + field + variant token. Any change to the stream
// changes the footer CRC and with it every ETag, so CDNs revalidate
// exactly when they must.
func fieldETag(footerCRC uint32, step int, field, token string) string {
	return fmt.Sprintf("\"%08x-%d-%08x-%s\"", footerCRC, step,
		crc32.Checksum([]byte(field), castagnoli), token)
}

// rateToken renders a rate bucket as an ETag/cache-key token.
func rateToken(rate float64) string {
	return "r" + strconv.FormatFloat(rate, 'g', -1, 64)
}

// quantizeRate buckets a requested rate up to the next quarter-bit so the
// cache and CDN see a small set of representations instead of one per
// float the clients dream up. Rounding up means a client never receives
// less quality than it asked for; exact multiples (the common ?rate=8)
// are their own bucket.
func quantizeRate(rate float64) float64 {
	q := math.Ceil(rate*4) / 4
	if q < 0.5 {
		q = 0.5
	}
	return q
}
