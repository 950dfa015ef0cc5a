package codec

import "fmt"

// Frame envelope: the self-describing wrapper around a codec-native stream.
//
//	offset size  field
//	0      4     magic "CFRM"
//	4      1     envelope version (1)
//	5      1     codec ID length L (1 ≤ L ≤ 32)
//	6      L     codec ID (ASCII)
//	6+L    ...   codec-native stream (own magic, version, CRC)
//
// The envelope carries only identity; integrity and geometry live in the
// codec-native stream it wraps, which every backend already versions and
// (for sz) checksums.
const (
	frameMagic      = "CFRM"
	frameVersion    = 1
	frameFixedBytes = 6
	maxIDLen        = 32
)

// EncodeFrame serializes a frame with its self-describing codec header.
func EncodeFrame(f Frame) []byte {
	return AppendFrame(make([]byte, 0, FrameOverhead(f.CodecID())+f.CompressedSize()), f)
}

// AppendFrame appends f's envelope and codec-native stream to dst and
// returns the extended slice: the one serializer EncodeFrame wraps, so a
// caller assembling many frames (an archive, a stream step) writes each
// frame's bytes once, straight into its own buffer.
func AppendFrame(dst []byte, f Frame) []byte {
	id := f.CodecID()
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, byte(len(id)))
	dst = append(dst, id...)
	return f.AppendBytes(dst)
}

// FrameBody splits a frame envelope into its codec ID and codec-native
// body without resolving a backend or parsing the stream — the zero-copy
// structural view an archive server needs to locate codec bytes inside a
// stored step (the body aliases data). Validation covers the envelope
// only; the body's own magic/version/CRC are the backend's to check.
func FrameBody(data []byte) (ID, []byte, error) {
	if len(data) < frameFixedBytes {
		return "", nil, fmt.Errorf("codec: frame shorter than envelope header")
	}
	if string(data[0:4]) != frameMagic {
		return "", nil, fmt.Errorf("codec: bad frame magic %q", data[0:4])
	}
	if data[4] != frameVersion {
		return "", nil, fmt.Errorf("codec: unsupported frame version %d", data[4])
	}
	idLen := int(data[5])
	if idLen == 0 || idLen > maxIDLen {
		return "", nil, fmt.Errorf("codec: invalid codec ID length %d", idLen)
	}
	if len(data) < frameFixedBytes+idLen {
		return "", nil, fmt.Errorf("codec: frame truncated inside codec ID")
	}
	id := ID(data[frameFixedBytes : frameFixedBytes+idLen])
	return id, data[frameFixedBytes+idLen:], nil
}

// FrameOverhead is the envelope bytes EncodeFrame adds around a
// codec-native stream for the given ID — what an exact size prediction
// (PredictSize plus assembly overhead) must account for without encoding.
func FrameOverhead(id ID) int { return frameFixedBytes + len(id) }

// DecodeFrame reverses EncodeFrame, resolving the named codec in this
// registry and handing it the codec-native body.
func (r *Registry) DecodeFrame(data []byte) (Frame, error) {
	id, body, err := FrameBody(data)
	if err != nil {
		return nil, err
	}
	c, err := r.Lookup(id)
	if err != nil {
		return nil, fmt.Errorf("codec: frame header: %w", err)
	}
	return c.Parse(body)
}

// DecodeFrame decodes a self-describing frame against the Default registry.
func DecodeFrame(data []byte) (Frame, error) { return Default.DecodeFrame(data) }
