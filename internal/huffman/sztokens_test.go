package huffman_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/nyx"
	"repro/internal/sz"
)

// szTokenStreams returns the entropy-stage input of real SZ partitions: every
// 16³ brick of two 32³ Nyx fields at three bounds, recovered from each
// frame's code stream. These carry the run tokens at 2·radius + j that sit
// at the top of the alphabet, the traffic the in situ path codes.
func szTokenStreams(t *testing.T) map[string][]int {
	t.Helper()
	snap, err := nyx.Generate(nyx.Params{N: 32, Seed: 5, Redshift: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := grid.PartitionerForBrickDim(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]int{}
	for _, name := range []string{nyx.FieldBaryonDensity, nyx.FieldTemperature} {
		f, err := snap.Field(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range []float64{1e-4, 1e-3, 1e-2} {
			for i, part := range p.Partitions() {
				nx, ny, nz := part.Dims()
				c, err := sz.CompressSlice(grid.Extract(f, part), nx, ny, nz,
					sz.Options{Mode: sz.ABS, ErrorBound: rel * f.AbsMax()})
				if err != nil {
					t.Fatal(err)
				}
				frame := c.Bytes()
				n := binary.LittleEndian.Uint32(frame[40:44]) // code stream length
				tokens, err := huffman.Decompress(frame[sz.HeaderBytes : sz.HeaderBytes+int(n)])
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s/eb%g/part%d", name, rel, i)] = tokens
			}
		}
	}
	return out
}

func TestDifferentialSZPartitionTokens(t *testing.T) {
	const runBase = 2 * sz.DefaultRadius
	streams := szTokenStreams(t)
	withRuns := 0
	for name, tokens := range streams {
		for _, v := range tokens {
			if v > runBase {
				withRuns++
				break
			}
		}
		huffman.DiffStream(t, name, tokens)
	}
	if withRuns == 0 {
		t.Fatal("no partition stream carries a run token; the case tests nothing")
	}
	t.Logf("%d of %d partition streams carry run tokens", withRuns, len(streams))
}
