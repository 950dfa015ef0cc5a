package archiveserve

import (
	"fmt"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/zfp"
)

// SpliceArchive derives the rate-R form of a stored v2 ZFP field archive
// locally: every partition's embedded stream is truncated to the rate's
// bit budget and the archive envelope is rebuilt around the prefixes.
// This is the same computation the archive server runs for ?rate=R — a
// served response and SpliceArchive over the stored bytes are
// byte-identical, which is what lets a client (or the CI smoke gate)
// verify a server without trusting it.
func SpliceArchive(data []byte, rate float64) ([]byte, error) {
	cf, err := core.ParseCompressedField(data)
	if err != nil {
		return nil, err
	}
	out := &core.CompressedField{
		Nx: cf.Nx, Ny: cf.Ny, Nz: cf.Nz,
		PartitionDim: cf.PartitionDim,
		Codec:        codec.ZFP,
		Parts:        make([]codec.Frame, 0, len(cf.Parts)),
	}
	var s zfp.Scratch
	var body []byte // reused: TruncateToRate copies what it keeps
	for i, part := range cf.Parts {
		if part.CodecID() != codec.ZFP {
			return nil, fmt.Errorf("archiveserve: %w: partition %d is %q, rate slicing is a zfp property",
				apierr.ErrBadConfig, i, part.CodecID())
		}
		body = part.AppendBytes(body[:0])
		c, err := zfp.Parse(body)
		if err != nil {
			return nil, err
		}
		ix, err := zfp.Reindex(c)
		if err != nil {
			return nil, err
		}
		tc, err := ix.TruncateToRate(rate, &s)
		if err != nil {
			return nil, err
		}
		out.Parts = append(out.Parts, codec.WrapZFP(tc))
	}
	return out.Bytes(), nil
}
