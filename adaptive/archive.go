package adaptive

import (
	"repro/internal/archiveserve"
	"repro/internal/client"
)

// ArchiveServer is the progressive multi-resolution archive server: a
// read-only HTTP service over v3 archive streams that stores each
// snapshot once at maximum rate and synthesizes any lower-rate
// representation by bit-prefix splicing (never recompression), with a
// byte-budgeted LRU over synthesized representations, strong ETags
// derived from the stream footer checksum, and Range support. Expose its
// Handler with NewH2CServer.
type ArchiveServer = archiveserve.Server

// ArchiveServerConfig tunes an ArchiveServer; zero values select sane
// defaults (256 MiB cache, the default codec registry).
type ArchiveServerConfig = archiveserve.Config

// ArchiveServerStats is the counter document the archive server's
// /v1/stats endpoint serves: per-tier request rows plus the synthesis
// counters that prove cache-hot fetches do zero compression work.
type ArchiveServerStats = archiveserve.Stats

// ArchiveTierStats is one quality tier's counter row.
type ArchiveTierStats = archiveserve.TierStats

// ArchiveCacheStats is the representation cache's counter snapshot.
type ArchiveCacheStats = archiveserve.CacheStats

// ArchiveManifest describes one stream: steps, fields, codecs, stored
// rates, and exact predicted sizes at the standard rate rungs.
type ArchiveManifest = archiveserve.Manifest

// ArchiveFieldManifest describes one field of a stream's manifest.
type ArchiveFieldManifest = archiveserve.FieldManifest

// ArchiveRungSize is one rate rung's exact serialized size.
type ArchiveRungSize = archiveserve.RungSize

// ArchiveWriter produces a v3 archive stream plus its sidecar splice
// index in one pass (ZFP partitions keep their per-block bit accounting
// from compression, so the server never has to rescan them).
type ArchiveWriter = archiveserve.Writer

// ArchiveWriterOptions configures NewArchiveWriter.
type ArchiveWriterOptions = archiveserve.WriterOptions

// ArchiveFieldSpec is one field of a step headed into an ArchiveWriter.
type ArchiveFieldSpec = archiveserve.FieldSpec

// ArchiveFetchOptions selects the representation Client.FetchField asks
// for: a spliced rate or a revalidation ETag.
type ArchiveFetchOptions = client.FetchOptions

// ArchiveFetchResult is one Client.FetchField read.
type ArchiveFetchResult = client.FetchResult

// ArchiveStreamSuffix names streams in a store directory (<name>.acs);
// ArchiveSidecarSuffix is appended to a stream path for its splice index.
const (
	ArchiveStreamSuffix  = archiveserve.StreamSuffix
	ArchiveSidecarSuffix = archiveserve.SidecarSuffix
)

// NewArchiveServer opens dir as a read-only archive store and builds the
// serving layer over it. Mount Handler() with NewH2CServer.
func NewArchiveServer(cfg ArchiveServerConfig) (*ArchiveServer, error) {
	return archiveserve.New(cfg)
}

// NewArchiveWriter creates (truncating) an archive stream at path and its
// sidecar index at path+ArchiveSidecarSuffix on Close.
func NewArchiveWriter(path string, opt ArchiveWriterOptions) (*ArchiveWriter, error) {
	return archiveserve.NewWriter(path, opt)
}

// SpliceArchiveField derives the rate-R form of a stored v2 ZFP field
// archive locally — the same bit-prefix splice the archive server runs
// for ?rate=R, so served bytes and this function's output are identical.
func SpliceArchiveField(archive []byte, rate float64) ([]byte, error) {
	return archiveserve.SpliceArchive(archive, rate)
}
