package archiveserve

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/zfp"
)

// WriterOptions configures an archive writer.
type WriterOptions struct {
	// Rate is the stored ZFP rate — the quality ceiling every lower rung
	// is spliced from. Default 16 bits/value.
	Rate float64
	// PartitionDim is the cubic brick edge, which must divide every field
	// dimension. The zero value resolves per field to half its x extent:
	// two bricks per axis, eight for a cubic field.
	PartitionDim int
}

func (o *WriterOptions) defaults() {
	if o.Rate == 0 {
		o.Rate = 16
	}
}

// FieldSpec is one field of a step headed into the archive.
type FieldSpec struct {
	Field *grid.Field3D
	// Codec picks the archived representation: ZFP (default) stores the
	// progressive max-rate stream, SZ an error-bounded stream that is
	// served as stored.
	Codec codec.ID
	// ErrorBound is the SZ pointwise ABS bound (ignored for ZFP).
	ErrorBound float64
}

// Writer produces an archive stream and its sidecar index in one pass:
// every ZFP partition is compressed with CompressIndexed, so the per-block
// bit-offset tables the server splices from are recorded during
// compression instead of recovered by a scan.
type Writer struct {
	path string
	f    *os.File
	sw   *core.StreamWriter
	opt  WriterOptions
	sc   *sidecar
	done bool
}

// NewWriter creates (truncating) the stream at path and its sidecar at
// path+SidecarSuffix on Close.
func NewWriter(path string, opt WriterOptions) (*Writer, error) {
	opt.defaults()
	if err := (zfp.Options{Rate: opt.Rate}).Validate(); err != nil {
		return nil, fmt.Errorf("archiveserve: %w: %v", apierr.ErrBadConfig, err)
	}
	if opt.PartitionDim < 0 {
		return nil, fmt.Errorf("archiveserve: %w: partition dim %d", apierr.ErrBadConfig, opt.PartitionDim)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("archiveserve: writer: %w", err)
	}
	sw, err := core.NewStreamWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{path: path, f: f, sw: sw, opt: opt, sc: &sidecar{}}, nil
}

// WriteStep compresses and appends one step. Fields are archived in
// sorted name order (the stream's canonical order); the sidecar records
// each ZFP partition's bit table in the same order.
func (w *Writer) WriteStep(fields map[string]FieldSpec) error {
	if w.done {
		return fmt.Errorf("archiveserve: writer is closed")
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	step := make([]fieldIndex, 0, len(names))
	cfs := make(map[string]*core.CompressedField, len(names))
	for _, name := range names {
		spec := fields[name]
		cf, fi, err := w.compressField(name, spec)
		if err != nil {
			return err
		}
		cfs[name] = cf
		step = append(step, fi)
	}
	if err := w.sw.WriteStep(cfs); err != nil {
		return err
	}
	w.sc.steps = append(w.sc.steps, step)
	return nil
}

func (w *Writer) compressField(name string, spec FieldSpec) (*core.CompressedField, fieldIndex, error) {
	fi := fieldIndex{name: name}
	f := spec.Field
	if f == nil {
		return nil, fi, fmt.Errorf("archiveserve: %w: field %q is nil", apierr.ErrBadConfig, name)
	}
	d := w.opt.PartitionDim
	if d == 0 {
		d = f.Nx / 2
	}
	if d < 1 || f.Nx%d != 0 || f.Ny%d != 0 || f.Nz%d != 0 {
		return nil, fi, fmt.Errorf("archiveserve: %w: field %q (%d×%d×%d) not divisible by partition dim %d",
			apierr.ErrBadConfig, name, f.Nx, f.Ny, f.Nz, d)
	}
	p, err := grid.NewPartitioner(f.Nx, f.Ny, f.Nz, f.Nx/d, f.Ny/d, f.Nz/d)
	if err != nil {
		return nil, fi, err
	}
	id := spec.Codec
	if id == "" {
		id = codec.ZFP
	}
	cf := &core.CompressedField{
		Nx: f.Nx, Ny: f.Ny, Nz: f.Nz,
		PartitionDim: d,
		Codec:        id,
		Parts:        make([]codec.Frame, 0, p.Count()),
	}
	fi.starts = make([][]int, p.Count())
	var scratch zfp.Scratch
	for i := 0; i < p.Count(); i++ {
		part := p.Partition(i)
		brick, err := grid.BrickField(part, grid.Extract(f, part))
		if err != nil {
			return nil, fi, err
		}
		switch id {
		case codec.ZFP:
			ix, err := zfp.CompressIndexed(brick, zfp.Options{Rate: w.opt.Rate}, &scratch)
			if err != nil {
				return nil, fi, err
			}
			cf.Parts = append(cf.Parts, codec.WrapZFP(ix.C))
			fi.starts[i] = ix.Starts()
		case codec.SZ:
			if spec.ErrorBound <= 0 {
				return nil, fi, fmt.Errorf("archiveserve: %w: field %q: sz needs a positive error bound", apierr.ErrBadConfig, name)
			}
			szc, err := codec.Lookup(codec.SZ)
			if err != nil {
				return nil, fi, err
			}
			fr, err := szc.Compress(brick.Data, brick.Nx, brick.Ny, brick.Nz,
				codec.Options{Mode: codec.ABS, ErrorBound: spec.ErrorBound}, nil)
			if err != nil {
				return nil, fi, err
			}
			cf.Parts = append(cf.Parts, fr)
		default:
			return nil, fi, fmt.Errorf("archiveserve: %w: field %q: unsupported archive codec %q", apierr.ErrBadConfig, name, id)
		}
	}
	return cf, fi, nil
}

// Steps reports how many steps have been written.
func (w *Writer) Steps() int { return w.sw.Steps() }

// Close finalizes the stream (footer), computes the footer binding, and
// persists the sidecar next to it.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	if err := w.sw.Close(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("archiveserve: writer: %w", err)
	}
	fi, err := w.f.Stat()
	if err != nil {
		w.f.Close()
		return fmt.Errorf("archiveserve: writer: %w", err)
	}
	crc, err := footerRegionCRC(w.f, fi.Size())
	if err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("archiveserve: writer: %w", err)
	}
	w.sc.footerCRC = crc
	if err := os.WriteFile(w.path+SidecarSuffix, encodeSidecar(w.sc), 0o644); err != nil {
		return fmt.Errorf("archiveserve: sidecar: %w", err)
	}
	return nil
}
