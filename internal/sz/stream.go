package sz

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// On-disk / on-wire framing for a Compressed brick.
//
// Layout (little endian):
//
//	offset size  field
//	0      4     magic "SZGO"
//	4      1     version (1)
//	5      1     mode
//	6      1     predictor
//	7      1     flags (bit0: integer-lattice Lorenzo)
//	8      8     error bound (float64)
//	16     4     radius
//	20     12    nx, ny, nz (uint32 each)
//	32     8     logShift (float64)
//	40     4     len(codeStream)
//	44     4     len(outliers)
//	48     4     CRC32 (Castagnoli) of the two payload sections
//	52     ...   codeStream ++ outliers
//
// Every new frame writes predictor 0 (Lorenzo) and sets flag bit0: its
// code stream came from the integer-lattice encoder. Flag 0 marks the
// reconstructed-value frames older encoders wrote, with predictor 0 or 1
// (mean neighbour); they keep decoding forever, because archives are.
const (
	headerSize = 52
	magic      = "SZGO"
	version    = 1
)

// HeaderBytes is the fixed per-brick framing overhead, exported for the
// ratio-quality model's per-partition header term.
const HeaderBytes = headerSize

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Bytes serializes the brick.
func (c *Compressed) Bytes() []byte {
	return c.AppendBytes(make([]byte, 0, c.CompressedSize()))
}

// AppendBytes appends the serialized brick to dst and returns the extended
// slice: the one serializer Bytes wraps.
func (c *Compressed) AppendBytes(dst []byte) []byte {
	var hdr [headerSize]byte
	copy(hdr[0:4], magic)
	hdr[4] = version
	hdr[5] = byte(c.Opt.Mode)
	hdr[6] = byte(c.predictor)
	if c.lattice {
		hdr[7] = 1
	}
	binary.LittleEndian.PutUint64(hdr[8:16], math.Float64bits(c.Opt.ErrorBound))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(c.Opt.radius()))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(c.Nx))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(c.Ny))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(c.Nz))
	binary.LittleEndian.PutUint64(hdr[32:40], math.Float64bits(c.logShift))
	binary.LittleEndian.PutUint32(hdr[40:44], uint32(len(c.codeStream)))
	binary.LittleEndian.PutUint32(hdr[44:48], uint32(len(c.outliers)))
	crc := crc32.Checksum(c.codeStream, crcTable)
	crc = crc32.Update(crc, crcTable, c.outliers)
	binary.LittleEndian.PutUint32(hdr[48:52], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, c.codeStream...)
	return append(dst, c.outliers...)
}

// Parse deserializes a brick previously produced by Bytes. The payload CRC
// is verified so that corrupted archives fail loudly instead of producing
// silently wrong science data.
func Parse(data []byte) (*Compressed, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: stream shorter than header", ErrCorrupt)
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:4])
	}
	if data[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[4])
	}
	opt := Options{
		Mode:       Mode(data[5]),
		ErrorBound: math.Float64frombits(binary.LittleEndian.Uint64(data[8:16])),
		Radius:     int(binary.LittleEndian.Uint32(data[16:20])),
	}
	nx := int(binary.LittleEndian.Uint32(data[20:24]))
	ny := int(binary.LittleEndian.Uint32(data[24:28]))
	nz := int(binary.LittleEndian.Uint32(data[28:32]))
	logShift := math.Float64frombits(binary.LittleEndian.Uint64(data[32:40]))
	codeLen := int(binary.LittleEndian.Uint32(data[40:44]))
	outLen := int(binary.LittleEndian.Uint32(data[44:48]))
	wantCRC := binary.LittleEndian.Uint32(data[48:52])

	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	p := Predictor(data[6])
	if p != Lorenzo3D && p != meanNeighbor {
		return nil, fmt.Errorf("%w: unknown predictor %d", ErrCorrupt, p)
	}
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("%w: invalid dims %dx%dx%d", ErrCorrupt, nx, ny, nz)
	}
	if len(data) != headerSize+codeLen+outLen {
		return nil, fmt.Errorf("%w: length %d != header+%d+%d", ErrCorrupt, len(data), codeLen, outLen)
	}
	codeStream := data[headerSize : headerSize+codeLen]
	outliers := data[headerSize+codeLen:]
	crc := crc32.Checksum(codeStream, crcTable)
	crc = crc32.Update(crc, crcTable, outliers)
	if crc != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return &Compressed{
		Nx: nx, Ny: ny, Nz: nz,
		Opt:        opt,
		lattice:    data[7]&1 != 0,
		predictor:  p,
		codeStream: codeStream,
		outliers:   outliers,
		logShift:   logShift,
	}, nil
}
