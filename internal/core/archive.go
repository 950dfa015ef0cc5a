package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/apierr"
	"repro/internal/codec"
)

// errCorrupt is the sentinel every archive-validation failure in this file
// wraps (re-exported by the facade as adaptive.ErrCorruptArchive), so a
// reader can classify any parse failure with one errors.Is check.
var errCorrupt = apierr.ErrCorruptArchive

// readAtErr classifies an io.ReaderAt failure: running off the end of the
// stream is truncation — corruption — but any other I/O failure (a closed
// handle, a transient EIO from network storage) is passed through
// untagged, so a caller that quarantines archives on ErrCorruptArchive
// never condemns a healthy file over a flaky read.
func readAtErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("core: %s: %w: %w", what, errCorrupt, err)
	}
	return fmt.Errorf("core: %s: %w", what, err)
}

// Archive framing for a CompressedField: a small header followed by
// length-prefixed self-describing codec frames, one per partition in
// partition-ID order.
//
//	offset size  field
//	0      4     magic "ACFD"
//	4      4     version (2)
//	8      12    nx, ny, nz (uint32)
//	20     4     partition dim
//	24     4     partition count
//	28     ...   per partition: uint32 length + codec frame envelope
//
// Version 2 switched the per-partition payload from raw sz streams to
// codec envelopes (codec ID + version + native stream), so archives decode
// without out-of-band knowledge of the producing backend — including
// archives whose partitions mix codecs.
const (
	archiveMagic   = "ACFD"
	archiveVersion = 2
	archiveHeader  = 28
)

// Bytes serializes the compressed field. Each partition's native stream
// carries its own integrity checks (sz CRCs its payload), so the archive
// needs no extra checksum.
func (cf *CompressedField) Bytes() []byte {
	return cf.AppendBytes(make([]byte, 0, cf.encodedSize()))
}

// AppendBytes appends the serialized field to dst and returns the extended
// slice: the one serializer Bytes wraps. Each partition's length prefix is
// reserved, then back-patched once its frame is appended, so every frame's
// bytes are written once, straight into dst.
func (cf *CompressedField) AppendBytes(dst []byte) []byte {
	var hdr [archiveHeader]byte
	copy(hdr[0:4], archiveMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], archiveVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(cf.Nx))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(cf.Ny))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(cf.Nz))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(cf.PartitionDim))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(cf.Parts)))
	dst = append(dst, hdr[:]...)
	for _, p := range cf.Parts {
		at := len(dst)
		dst = codec.AppendFrame(append(dst, 0, 0, 0, 0), p)
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// encodedSize is the exact length AppendBytes appends.
func (cf *CompressedField) encodedSize() int {
	n := archiveHeader
	for _, p := range cf.Parts {
		n += 4 + codec.FrameOverhead(p.CodecID()) + p.CompressedSize()
	}
	return n
}

// ParseCompressedField reverses Bytes, resolving each partition's codec
// from its frame header and validating every stream.
func ParseCompressedField(data []byte) (*CompressedField, error) {
	return ParseCompressedFieldWith(data, codec.Default)
}

// ParseCompressedFieldWith is ParseCompressedField against a specific
// codec registry.
func ParseCompressedFieldWith(data []byte, reg *codec.Registry) (*CompressedField, error) {
	if len(data) < archiveHeader {
		return nil, fmt.Errorf("core: %w: archive shorter than header", errCorrupt)
	}
	if string(data[0:4]) != archiveMagic {
		return nil, fmt.Errorf("core: %w: bad archive magic %q", errCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != archiveVersion {
		return nil, fmt.Errorf("core: %w: unsupported archive version %d", errCorrupt, v)
	}
	cf := &CompressedField{
		Nx:           int(binary.LittleEndian.Uint32(data[8:12])),
		Ny:           int(binary.LittleEndian.Uint32(data[12:16])),
		Nz:           int(binary.LittleEndian.Uint32(data[16:20])),
		PartitionDim: int(binary.LittleEndian.Uint32(data[20:24])),
	}
	count := int(binary.LittleEndian.Uint32(data[24:28]))
	// A partition costs at least its 4-byte length prefix, so a count beyond
	// the remaining bytes/4 is corrupt; rejecting it here also keeps the
	// Parts pre-allocation honest on malicious headers.
	// maxArchiveDim bounds each axis so Nx·Ny·Nz cannot overflow int and a
	// hostile header cannot make Decompress allocate an absurd field.
	const maxArchiveDim = 1 << 20
	if cf.Nx <= 0 || cf.Ny <= 0 || cf.Nz <= 0 || cf.PartitionDim <= 0 || count <= 0 ||
		cf.Nx > maxArchiveDim || cf.Ny > maxArchiveDim || cf.Nz > maxArchiveDim ||
		count > (len(data)-archiveHeader)/4 {
		return nil, fmt.Errorf("core: %w: invalid archive header (%d×%d×%d / dim %d / %d parts)",
			errCorrupt, cf.Nx, cf.Ny, cf.Nz, cf.PartitionDim, count)
	}
	pos := archiveHeader
	cf.Parts = make([]codec.Frame, 0, count)
	for i := 0; i < count; i++ {
		if pos+4 > len(data) {
			return nil, fmt.Errorf("core: %w: archive truncated at partition %d", errCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if pos+n > len(data) {
			return nil, fmt.Errorf("core: %w: partition %d stream truncated", errCorrupt, i)
		}
		p, err := reg.DecodeFrame(data[pos : pos+n])
		if err != nil {
			// Both the taxonomy sentinel and the codec-level cause are
			// wrapped, so errors.Is sees ErrCorruptArchive here and (for a
			// frame naming a foreign backend) ErrCodecUnknown from below.
			return nil, fmt.Errorf("core: partition %d: %w: %w", i, errCorrupt, err)
		}
		cf.Parts = append(cf.Parts, p)
		pos += n
	}
	if pos != len(data) {
		return nil, fmt.Errorf("core: %w: %d trailing bytes in archive", errCorrupt, len(data)-pos)
	}
	cf.Codec = cf.Parts[0].CodecID()
	return cf, nil
}

// --- Archive v3: multi-snapshot stream container -------------------------
//
// Version 3 is the streaming form of the archive: a header, then one block
// per simulation step appended as the step is compressed, then a footer
// index written once at Close. Each step block holds the step's fields in
// name order; each field payload is a complete v2 single-field archive, so
// every partition stream inside is still a self-describing codec envelope.
//
//	header (16 bytes)
//	  0   4   magic "ACS3"
//	  4   4   version (3)
//	  8   8   reserved (0)
//	step block (appended per step)
//	  uint32  field count
//	  per field: uint16 name length, name bytes,
//	             uint32 payload length, v2 archive payload
//	footer (written at Close)
//	  per step: uint64 offset, uint64 length   (the index)
//	  uint32  step count
//	  uint64  index offset
//	  4       magic "ACSX"
//
// The footer is fixed-size from the end, so a reader locates the index with
// one read and then seeks to any step in O(1) — no scan through earlier
// steps, which is what makes post-hoc analysis of one late timestep cheap
// even for long runs.
const (
	streamMagic        = "ACS3"
	streamTrailerMagic = "ACSX"
	streamVersion      = 3
	streamHeaderBytes  = 16
	streamTrailerBytes = 16 // step count + index offset + trailer magic
)

type streamIndexEntry struct {
	Offset, Length uint64
}

// appendStreamFooter appends the v3 footer (index entries, step count,
// index offset, trailer magic) for steps ending at indexOff. Shared by
// Close, checkpoint snapshots, and StreamReader.WriteTo so all three emit
// bit-identical footers.
func appendStreamFooter(buf []byte, index []streamIndexEntry, indexOff uint64) []byte {
	if cap(buf) == 0 {
		buf = make([]byte, 0, 16*len(index)+streamTrailerBytes)
	}
	var scratch [8]byte
	for _, e := range index {
		binary.LittleEndian.PutUint64(scratch[:], e.Offset)
		buf = append(buf, scratch[:]...)
		binary.LittleEndian.PutUint64(scratch[:], e.Length)
		buf = append(buf, scratch[:]...)
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(index)))
	buf = append(buf, scratch[:4]...)
	binary.LittleEndian.PutUint64(scratch[:], indexOff)
	buf = append(buf, scratch[:]...)
	return append(buf, streamTrailerMagic...)
}

// StreamWriter appends compressed steps to an archive v3 stream. It only
// needs an io.Writer: offsets are tracked by counting, so the destination
// can be a pipe or an append-only log as well as a file. Not safe for
// concurrent use.
type StreamWriter struct {
	w      io.Writer
	off    uint64
	index  []streamIndexEntry
	closed bool
	// closeErr makes a failed footer write sticky: every later Close
	// reports it instead of claiming success on a truncated stream.
	closeErr error
	// writeErr poisons the writer after a failed WriteStep: the destination
	// may hold a short write at an unknown offset, so sw.off no longer
	// matches the real stream position and appending more steps (or a
	// footer indexing them) would silently corrupt the archive. Every later
	// WriteStep and Close reports this error instead.
	writeErr error

	// Checkpoint state (nil wAt = checkpointing off; the plain-writer code
	// path is untouched and its output byte-identical).
	ckpt      CheckpointOptions
	wAt       io.WriterAt
	trunc     interface{ Truncate(int64) error }
	sinceCkpt int
	// extent is the farthest byte ever written, including checkpoint
	// footers beyond off; Close truncates back to the true stream end.
	extent uint64

	// buf and names are reused by every WriteStep (and buf by every
	// checkpoint), so a steady-state step allocates nothing proportional
	// to its size.
	buf   []byte
	names []string
}

// CheckpointOptions tunes the stream writer's crash-recovery checkpoints.
type CheckpointOptions struct {
	// Interval is the number of steps between footer snapshots (default 1:
	// snapshot after every step).
	Interval int
	// Sync fsyncs the destination after each snapshot when it implements
	// Sync() error (an *os.File does). With Sync on, a crash loses at most
	// Interval steps — the bounded-loss contract; without it the loss
	// bound is whatever the OS page cache had not flushed.
	Sync bool
}

// NewCheckpointedStreamWriter is NewStreamWriter with crash-recovery
// checkpoints: after every Interval steps the current footer index is
// written at the stream's tail via WriteAt — without advancing the append
// cursor — so the artifact on disk is a complete, OpenStream-valid v3
// stream at every checkpoint. The next WriteStep simply overwrites the
// snapshot with real step bytes. A crash therefore leaves either a
// directly openable stream (crash between steps) or a torn one whose
// checkpointed prefix RecoverStream salvages in full.
//
// The destination must implement io.WriterAt and Truncate(int64) error —
// an *os.File does — because snapshots may extend the file past the final
// footer, which Close truncates away. The emitted byte stream is
// indistinguishable from NewStreamWriter's once Close returns.
func NewCheckpointedStreamWriter(w io.Writer, opt CheckpointOptions) (*StreamWriter, error) {
	wAt, ok := w.(io.WriterAt)
	if !ok {
		return nil, fmt.Errorf("core: checkpointed stream writer needs io.WriterAt, %T does not implement it", w)
	}
	trunc, ok := w.(interface{ Truncate(int64) error })
	if !ok {
		return nil, fmt.Errorf("core: checkpointed stream writer needs Truncate(int64), %T does not implement it", w)
	}
	if opt.Interval <= 0 {
		opt.Interval = 1
	}
	sw, err := NewStreamWriter(w)
	if err != nil {
		return nil, err
	}
	sw.ckpt, sw.wAt, sw.trunc = opt, wAt, trunc
	sw.extent = sw.off
	return sw, nil
}

// checkpoint snapshots the footer at the current tail. sw.off is not
// advanced: the snapshot lives past the logical stream end and is
// overwritten by the next step (or superseded by Close's real footer).
func (sw *StreamWriter) checkpoint() error {
	sw.buf = appendStreamFooter(sw.buf[:0], sw.index, sw.off)
	buf := sw.buf
	if _, err := sw.wAt.WriteAt(buf, int64(sw.off)); err != nil {
		return fmt.Errorf("core: stream checkpoint after step %d: %w", len(sw.index), err)
	}
	if end := sw.off + uint64(len(buf)); end > sw.extent {
		sw.extent = end
	}
	if sw.ckpt.Sync {
		if err := sw.sync(); err != nil {
			return fmt.Errorf("core: stream checkpoint sync after step %d: %w", len(sw.index), err)
		}
	}
	sw.sinceCkpt = 0
	return nil
}

func (sw *StreamWriter) sync() error {
	if s, ok := sw.w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// NewStreamWriter writes the stream header and returns a writer ready to
// accept steps.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	var hdr [streamHeaderBytes]byte
	copy(hdr[0:4], streamMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], streamVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("core: stream header: %w", err)
	}
	return &StreamWriter{w: w, off: streamHeaderBytes}, nil
}

// WriteStep appends one step's fields (in sorted name order, so the byte
// stream is deterministic regardless of map iteration). A failed append
// poisons the writer: the error is sticky, and both later WriteStep and
// Close calls keep returning it rather than appending at a stale offset
// into a stream that already holds a partial step.
func (sw *StreamWriter) WriteStep(fields map[string]*CompressedField) error {
	if sw.writeErr != nil {
		return sw.writeErr
	}
	if sw.closed {
		return fmt.Errorf("core: stream writer is closed")
	}
	if len(fields) == 0 {
		return fmt.Errorf("core: step has no fields")
	}
	names := sw.names[:0]
	size := 4
	for name, cf := range fields {
		if len(name) == 0 || len(name) > 1<<16-1 {
			return fmt.Errorf("core: invalid field name %q", name)
		}
		n := cf.encodedSize()
		if uint64(n) > 1<<32-1 {
			return fmt.Errorf("core: field %q payload %d bytes exceeds the stream's 4 GiB field limit", name, n)
		}
		names = append(names, name)
		size += 2 + len(name) + 4 + n
	}
	slices.Sort(names)
	sw.names = names

	// The step is serialized once, into the writer's own buffer: each
	// field's length prefix is reserved and back-patched, and the buffer
	// is reused by every later step (io.Writer may not retain it).
	buf := slices.Grow(sw.buf[:0], size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		at := len(buf)
		buf = fields[name].AppendBytes(append(buf, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	sw.buf = buf
	if _, err := sw.w.Write(buf); err != nil {
		sw.writeErr = fmt.Errorf("core: stream step %d: %w", len(sw.index), err)
		return sw.writeErr
	}
	sw.index = append(sw.index, streamIndexEntry{Offset: sw.off, Length: uint64(len(buf))})
	sw.off += uint64(len(buf))
	if sw.off > sw.extent {
		sw.extent = sw.off
	}
	if sw.wAt != nil {
		// A checkpoint failure does not poison the writer — the step above
		// landed and sw.off is accurate — but it is surfaced: the caller's
		// durability contract (bounded loss) just broke, and on a dying disk
		// aborting the run beats discovering the loss after the crash.
		if sw.sinceCkpt++; sw.sinceCkpt >= sw.ckpt.Interval {
			return sw.checkpoint()
		}
	}
	return nil
}

// Steps returns the number of steps written so far.
func (sw *StreamWriter) Steps() int { return len(sw.index) }

// TruncateSteps rewinds the stream to its state after step n (keeping
// steps [0, n)): the distributed step-retry primitive. When a rank dies
// mid-step, every survivor may already have appended its shard block for
// the failed step; the retry — with rebalanced ownership — rewrites that
// step from scratch, so the half-committed block must be cut off first.
//
// The destination must implement Truncate(int64) error and io.Seeker (an
// *os.File does): Truncate alone does not move the file's write cursor,
// so the append position is explicitly re-seeked to the new end. A
// truncation failure poisons the writer like a failed step write — the
// real stream position is unknowable afterwards.
func (sw *StreamWriter) TruncateSteps(n int) error {
	if sw.writeErr != nil {
		return sw.writeErr
	}
	if sw.closed {
		return fmt.Errorf("core: stream writer is closed")
	}
	if n < 0 || n > len(sw.index) {
		return fmt.Errorf("core: truncate to %d steps outside [0,%d]", n, len(sw.index))
	}
	if n == len(sw.index) {
		return nil
	}
	trunc, ok := sw.w.(interface{ Truncate(int64) error })
	if !ok {
		return fmt.Errorf("core: stream truncation needs Truncate(int64), %T does not implement it", sw.w)
	}
	seeker, ok := sw.w.(io.Seeker)
	if !ok {
		return fmt.Errorf("core: stream truncation needs io.Seeker, %T does not implement it", sw.w)
	}
	end := uint64(streamHeaderBytes)
	if n > 0 {
		end = sw.index[n-1].Offset + sw.index[n-1].Length
	}
	if err := trunc.Truncate(int64(end)); err != nil {
		sw.writeErr = fmt.Errorf("core: truncating stream to step %d: %w", n, err)
		return sw.writeErr
	}
	if _, err := seeker.Seek(int64(end), io.SeekStart); err != nil {
		sw.writeErr = fmt.Errorf("core: seeking stream to step %d: %w", n, err)
		return sw.writeErr
	}
	sw.index = sw.index[:n]
	sw.off = end
	sw.extent = end
	sw.sinceCkpt = 0
	return nil
}

// Close appends the footer index. The writer cannot be used afterwards;
// closing an empty stream is valid and yields a zero-step archive. A
// footer-write failure is sticky: repeated Close calls keep returning it,
// so a deferred second Close cannot mask a truncated stream. A writer
// poisoned by a failed WriteStep refuses to finalize at all — the footer
// would land at a stale offset — and Close reports the original failure.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return sw.closeErr
	}
	sw.closed = true
	if sw.writeErr != nil {
		sw.closeErr = fmt.Errorf("core: stream not finalized after failed step write: %w", sw.writeErr)
		return sw.closeErr
	}
	buf := appendStreamFooter(nil, sw.index, sw.off)
	if _, err := sw.w.Write(buf); err != nil {
		sw.closeErr = fmt.Errorf("core: stream footer: %w", err)
		return sw.closeErr
	}
	if sw.wAt != nil {
		// Checkpoint snapshots may have pushed the file past the real
		// stream end (a snapshot footer is longer than the steps written
		// after it); truncate so the artifact's size is exactly the stream.
		if end := sw.off + uint64(len(buf)); sw.extent > end {
			if err := sw.trunc.Truncate(int64(end)); err != nil {
				sw.closeErr = fmt.Errorf("core: truncating checkpoint residue: %w", err)
				return sw.closeErr
			}
		}
		if sw.ckpt.Sync {
			if err := sw.sync(); err != nil {
				sw.closeErr = fmt.Errorf("core: stream close sync: %w", err)
			}
		}
	}
	return sw.closeErr
}

// StreamReader reads an archive v3 stream with O(1) access to any step.
//
// A StreamReader is safe for concurrent use by multiple goroutines: all
// of its state (the step index, the registry) is immutable after
// OpenStream, every read method works on its own buffer, and positions
// are always passed explicitly to the underlying io.ReaderAt — there is
// no shared cursor. The only requirement is that the ReaderAt itself
// honors io.ReaderAt's contract of supporting parallel ReadAt calls,
// which *os.File, *bytes.Reader, and *io.SectionReader all do. One open
// stream can therefore serve many readers at once — the fan-out an
// archive server needs.
type StreamReader struct {
	r     io.ReaderAt
	index []streamIndexEntry
	reg   *codec.Registry
}

// OpenStream validates the header and footer of a v3 stream and loads its
// step index. size is the total byte length of the stream.
func OpenStream(r io.ReaderAt, size int64) (*StreamReader, error) {
	return OpenStreamWith(r, size, codec.Default)
}

// OpenStreamWith is OpenStream against a specific codec registry.
func OpenStreamWith(r io.ReaderAt, size int64, reg *codec.Registry) (*StreamReader, error) {
	if size < streamHeaderBytes+streamTrailerBytes {
		return nil, fmt.Errorf("core: %w: stream shorter than header+footer", errCorrupt)
	}
	var hdr [streamHeaderBytes]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, readAtErr("stream header", err)
	}
	if string(hdr[0:4]) != streamMagic {
		return nil, fmt.Errorf("core: %w: bad stream magic %q", errCorrupt, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != streamVersion {
		return nil, fmt.Errorf("core: %w: unsupported stream version %d", errCorrupt, v)
	}
	var trailer [streamTrailerBytes]byte
	if _, err := r.ReadAt(trailer[:], size-streamTrailerBytes); err != nil {
		return nil, readAtErr("stream trailer", err)
	}
	if string(trailer[12:16]) != streamTrailerMagic {
		return nil, fmt.Errorf("core: %w: bad stream trailer magic %q", errCorrupt, trailer[12:16])
	}
	count := int(binary.LittleEndian.Uint32(trailer[0:4]))
	indexOff := binary.LittleEndian.Uint64(trailer[4:12])
	indexLen := 16 * uint64(count)
	if indexLen > uint64(size) || indexOff > uint64(size) ||
		indexOff < streamHeaderBytes || indexOff+indexLen != uint64(size-streamTrailerBytes) {
		return nil, fmt.Errorf("core: %w: stream index at %d (%d steps) inconsistent with size %d",
			errCorrupt, indexOff, count, size)
	}
	raw := make([]byte, indexLen)
	if count > 0 {
		if _, err := r.ReadAt(raw, int64(indexOff)); err != nil {
			return nil, readAtErr("stream index", err)
		}
	}
	index := make([]streamIndexEntry, count)
	end := uint64(streamHeaderBytes)
	for i := range index {
		index[i].Offset = binary.LittleEndian.Uint64(raw[16*i:])
		index[i].Length = binary.LittleEndian.Uint64(raw[16*i+8:])
		// Steps are appended back to back, so the index must tile
		// [header, indexOff) exactly; anything else is corruption.
		if index[i].Offset != end || index[i].Length == 0 {
			return nil, fmt.Errorf("core: %w: stream index entry %d ([%d,+%d)) does not follow previous step at %d",
				errCorrupt, i, index[i].Offset, index[i].Length, end)
		}
		end += index[i].Length
	}
	if end != indexOff {
		return nil, fmt.Errorf("core: %w: stream steps end at %d, index starts at %d", errCorrupt, end, indexOff)
	}
	return &StreamReader{r: r, index: index, reg: reg}, nil
}

// Steps returns the number of steps in the stream.
func (sr *StreamReader) Steps() int { return len(sr.index) }

// ReadStep decodes step i's fields. Only the step's own byte range is read:
// access cost is independent of the step's position in the stream.
func (sr *StreamReader) ReadStep(i int) (map[string]*CompressedField, error) {
	if i < 0 || i >= len(sr.index) {
		return nil, fmt.Errorf("core: step %d out of range [0,%d)", i, len(sr.index))
	}
	e := sr.index[i]
	buf := make([]byte, e.Length)
	if _, err := sr.r.ReadAt(buf, int64(e.Offset)); err != nil {
		return nil, readAtErr(fmt.Sprintf("stream step %d", i), err)
	}
	return parseStepBlock(buf, i, sr.reg)
}

// StepSection returns a zero-copy io.SectionReader over step i's raw
// block bytes — the concurrent-reader seek primitive: each caller gets
// its own section (own cursor) over the shared ReaderAt, so goroutines
// can stream different steps from one open stream without coordination.
func (sr *StreamReader) StepSection(i int) (*io.SectionReader, error) {
	if i < 0 || i >= len(sr.index) {
		return nil, fmt.Errorf("core: step %d out of range [0,%d)", i, len(sr.index))
	}
	e := sr.index[i]
	return io.NewSectionReader(sr.r, int64(e.Offset), int64(e.Length)), nil
}

// PartitionLayout locates one partition's codec-native stream inside the
// v3 file (offsets are absolute file positions).
type PartitionLayout struct {
	Codec codec.ID
	// BodyOffset/BodyLength span the codec-native stream — the bytes a
	// codec's Parse consumes, with the frame envelope already stripped.
	BodyOffset, BodyLength int64
}

// FieldLayout locates one field of one step: its complete v2 archive
// payload and each partition's codec-native stream within it. This is the
// structural view an archive server serves from — it can hand a stored
// field to a client as one file range (ArchiveOffset/ArchiveLength) or
// splice individual partition streams without ever decoding a frame.
type FieldLayout struct {
	Name                     string
	Nx, Ny, Nz, PartitionDim int
	// ArchiveOffset/ArchiveLength span the field's v2 archive (header
	// included) inside the stream file.
	ArchiveOffset, ArchiveLength int64
	Partitions                   []PartitionLayout
}

// StepLayout maps step i's byte structure without decoding any codec
// frame: field names and geometry, the file range of each field's v2
// archive, and the file range of every partition's codec-native stream.
// Validation matches ReadStep's structural checks (counts, ordering,
// truncation, envelope headers); the codec-native payloads themselves are
// not parsed — their own magic/CRC checks run when the bytes are used.
func (sr *StreamReader) StepLayout(i int) ([]FieldLayout, error) {
	if i < 0 || i >= len(sr.index) {
		return nil, fmt.Errorf("core: step %d out of range [0,%d)", i, len(sr.index))
	}
	e := sr.index[i]
	buf := make([]byte, e.Length)
	if _, err := sr.r.ReadAt(buf, int64(e.Offset)); err != nil {
		return nil, readAtErr(fmt.Sprintf("stream step %d", i), err)
	}
	base := int64(e.Offset)
	if len(buf) < 4 {
		return nil, fmt.Errorf("core: %w: step %d block shorter than field count", errCorrupt, i)
	}
	count := int(binary.LittleEndian.Uint32(buf[0:4]))
	if count <= 0 || count > len(buf)/7+1 {
		return nil, fmt.Errorf("core: %w: step %d has field count %d", errCorrupt, i, count)
	}
	pos := 4
	layouts := make([]FieldLayout, 0, count)
	prevName := ""
	for j := 0; j < count; j++ {
		if pos+2 > len(buf) {
			return nil, fmt.Errorf("core: %w: step %d truncated at field %d name length", errCorrupt, i, j)
		}
		nameLen := int(binary.LittleEndian.Uint16(buf[pos : pos+2]))
		pos += 2
		if nameLen == 0 || pos+nameLen > len(buf) {
			return nil, fmt.Errorf("core: %w: step %d truncated inside field %d name", errCorrupt, i, j)
		}
		name := string(buf[pos : pos+nameLen])
		pos += nameLen
		if name <= prevName {
			return nil, fmt.Errorf("core: %w: step %d field %q out of sorted order", errCorrupt, i, name)
		}
		prevName = name
		if pos+4 > len(buf) {
			return nil, fmt.Errorf("core: %w: step %d truncated at field %q payload length", errCorrupt, i, name)
		}
		n := int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
		pos += 4
		if n < 0 || pos+n > len(buf) {
			return nil, fmt.Errorf("core: %w: step %d field %q payload truncated", errCorrupt, i, name)
		}
		fl, err := fieldLayout(buf[pos:pos+n], base+int64(pos))
		if err != nil {
			return nil, fmt.Errorf("core: step %d field %q: %w", i, name, err)
		}
		fl.Name = name
		layouts = append(layouts, fl)
		pos += n
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("core: %w: step %d has %d trailing bytes", errCorrupt, i, len(buf)-pos)
	}
	return layouts, nil
}

// fieldLayout walks one v2 archive's structure. base is the archive's
// absolute offset in the stream file; data is its complete byte range.
func fieldLayout(data []byte, base int64) (FieldLayout, error) {
	var fl FieldLayout
	if len(data) < archiveHeader {
		return fl, fmt.Errorf("core: %w: archive shorter than header", errCorrupt)
	}
	if string(data[0:4]) != archiveMagic {
		return fl, fmt.Errorf("core: %w: bad archive magic %q", errCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != archiveVersion {
		return fl, fmt.Errorf("core: %w: unsupported archive version %d", errCorrupt, v)
	}
	fl.Nx = int(binary.LittleEndian.Uint32(data[8:12]))
	fl.Ny = int(binary.LittleEndian.Uint32(data[12:16]))
	fl.Nz = int(binary.LittleEndian.Uint32(data[16:20]))
	fl.PartitionDim = int(binary.LittleEndian.Uint32(data[20:24]))
	count := int(binary.LittleEndian.Uint32(data[24:28]))
	const maxArchiveDim = 1 << 20
	if fl.Nx <= 0 || fl.Ny <= 0 || fl.Nz <= 0 || fl.PartitionDim <= 0 || count <= 0 ||
		fl.Nx > maxArchiveDim || fl.Ny > maxArchiveDim || fl.Nz > maxArchiveDim ||
		count > (len(data)-archiveHeader)/4 {
		return fl, fmt.Errorf("core: %w: invalid archive header (%d×%d×%d / dim %d / %d parts)",
			errCorrupt, fl.Nx, fl.Ny, fl.Nz, fl.PartitionDim, count)
	}
	fl.ArchiveOffset, fl.ArchiveLength = base, int64(len(data))
	fl.Partitions = make([]PartitionLayout, 0, count)
	pos := archiveHeader
	for i := 0; i < count; i++ {
		if pos+4 > len(data) {
			return fl, fmt.Errorf("core: %w: archive truncated at partition %d", errCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if pos+n > len(data) {
			return fl, fmt.Errorf("core: %w: partition %d stream truncated", errCorrupt, i)
		}
		id, body, err := codec.FrameBody(data[pos : pos+n])
		if err != nil {
			return fl, fmt.Errorf("core: partition %d: %w: %w", i, errCorrupt, err)
		}
		bodyOff := base + int64(pos) + int64(n-len(body))
		fl.Partitions = append(fl.Partitions, PartitionLayout{
			Codec: id, BodyOffset: bodyOff, BodyLength: int64(len(body)),
		})
		pos += n
	}
	if pos != len(data) {
		return fl, fmt.Errorf("core: %w: %d trailing bytes in archive", errCorrupt, len(data)-pos)
	}
	return fl, nil
}

func parseStepBlock(buf []byte, step int, reg *codec.Registry) (map[string]*CompressedField, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("core: %w: step %d block shorter than field count", errCorrupt, step)
	}
	count := int(binary.LittleEndian.Uint32(buf[0:4]))
	// Each field needs at least a name length, one name byte, and a payload
	// length, so a count beyond len(buf)/7 cannot be honest.
	if count <= 0 || count > len(buf)/7+1 {
		return nil, fmt.Errorf("core: %w: step %d has field count %d", errCorrupt, step, count)
	}
	pos := 4
	fields := make(map[string]*CompressedField, count)
	prevName := ""
	for j := 0; j < count; j++ {
		if pos+2 > len(buf) {
			return nil, fmt.Errorf("core: %w: step %d truncated at field %d name length", errCorrupt, step, j)
		}
		nameLen := int(binary.LittleEndian.Uint16(buf[pos : pos+2]))
		pos += 2
		if nameLen == 0 || pos+nameLen > len(buf) {
			return nil, fmt.Errorf("core: %w: step %d truncated inside field %d name", errCorrupt, step, j)
		}
		name := string(buf[pos : pos+nameLen])
		pos += nameLen
		// The writer emits strictly increasing (sorted, unique) names, so a
		// block violating that order is hostile: a repeated name would
		// otherwise collapse silently into the map, and an unsorted block
		// would re-serialize differently than it parsed. Order is checked
		// against the previous name, which also catches every duplicate —
		// equal names are adjacent in sorted order, and a non-adjacent
		// repeat necessarily breaks the ordering first.
		if name <= prevName {
			if name == prevName {
				return nil, fmt.Errorf("core: %w: step %d has duplicate field %q", errCorrupt, step, name)
			}
			return nil, fmt.Errorf("core: %w: step %d field %q out of sorted order (follows %q)",
				errCorrupt, step, name, prevName)
		}
		prevName = name
		if pos+4 > len(buf) {
			return nil, fmt.Errorf("core: %w: step %d truncated at field %q payload length", errCorrupt, step, name)
		}
		n := int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
		pos += 4
		if n < 0 || pos+n > len(buf) {
			return nil, fmt.Errorf("core: %w: step %d field %q payload truncated", errCorrupt, step, name)
		}
		cf, err := ParseCompressedFieldWith(buf[pos:pos+n], reg)
		if err != nil {
			// The nested v2 parse already tagged ErrCorruptArchive; keep
			// its chain intact and add the step/field position.
			return nil, fmt.Errorf("core: step %d field %q: %w", step, name, err)
		}
		fields[name] = cf
		pos += n
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("core: %w: step %d has %d trailing bytes", errCorrupt, step, len(buf)-pos)
	}
	return fields, nil
}
