package sz

import (
	"fmt"
	"math/bits"
	"slices"
)

// Run-length layer between quantization and Huffman coding.
//
// At moderate-to-high error bounds the Lorenzo predictor hits exactly
// (quantization code 0 → symbol `radius`) for the overwhelming majority of
// cells, in long runs across smooth regions. Huffman alone cannot spend
// less than 1 bit on such a symbol, which would cap the compression ratio
// at 32× for fp32 — but the paper reports ratios up to 82.8×. SZ gets past
// the 1-bit wall with a lossless stage; we use explicit run tokens:
//
//   - a run of k ≥ 2 consecutive `hit` symbols is decomposed into binary
//     powers 2^j (j ≥ 1) and each power emits one token `runBase + j`;
//   - a single hit emits the plain hit symbol.
//
// The alphabet grows by at most maxRunExp tokens; a run of a million cells
// costs ~20 tokens. Decoding is exact and order-preserving.

const maxRunExp = 40 // 2^40 cells ≫ any field in this repo

// rleEncode expands symbol runs of hitSym into run tokens with base
// runBase. Symbols must be < runBase.
func rleEncode(symbols []int, hitSym, runBase int) []int {
	return rleEncodeInto(make([]int, 0, len(symbols)/2+16), symbols, hitSym, runBase)
}

// rleEncodeInto is rleEncode appending into a caller-owned buffer (reset to
// length 0 first), so the hot per-partition path can reuse token storage.
// Literal stretches between runs are bulk-copied instead of appended one
// symbol at a time.
func rleEncodeInto(out, symbols []int, hitSym, runBase int) []int {
	out = out[:0]
	i := 0
	for i < len(symbols) {
		if symbols[i] != hitSym {
			j := i + 1
			for j < len(symbols) && symbols[j] != hitSym {
				j++
			}
			out = append(out, symbols[i:j]...)
			i = j
			continue
		}
		j := i
		for j < len(symbols) && symbols[j] == hitSym {
			j++
		}
		// One token per set bit of the run length, highest first; bit 0 is
		// a lone hit symbol.
		run := j - i
		for r := uint(run) &^ 1; r != 0; {
			exp := bits.Len(r) - 1
			out = append(out, runBase+exp)
			r &^= 1 << exp
		}
		if run&1 == 1 {
			out = append(out, hitSym)
		}
		i = j
	}
	return out
}

// rleDecode reverses rleEncode. n is the expected expanded length; the
// function errors if the stream disagrees.
func rleDecode(tokens []int, hitSym, runBase, n int) ([]int, error) {
	return rleDecodeInto(make([]int, 0, n), tokens, hitSym, runBase, n)
}

// rleDecodeInto is rleDecode expanding into a caller-owned buffer (passed
// with length 0 and capacity ≥ n), so the hot decode path reuses symbol
// storage.
func rleDecodeInto(out, tokens []int, hitSym, runBase, n int) ([]int, error) {
	for _, tok := range tokens {
		switch {
		case tok < runBase:
			out = append(out, tok)
		case tok <= runBase+maxRunExp:
			exp := tok - runBase
			if exp < 1 {
				return nil, fmt.Errorf("sz: invalid run token %d", tok)
			}
			run := 1 << exp
			if len(out)+run > n {
				return nil, fmt.Errorf("sz: run token overflows output (%d+%d > %d)",
					len(out), run, n)
			}
			out = slices.Grow(out, run)[:len(out)+run]
			fill := out[len(out)-run:]
			for k := range fill {
				fill[k] = hitSym
			}
		default:
			return nil, fmt.Errorf("sz: token %d outside alphabet", tok)
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("sz: RLE decoded %d symbols, want %d", len(out), n)
	}
	return out, nil
}
