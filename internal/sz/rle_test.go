package sz

import (
	"slices"
	"testing"
)

// refRLEEncode is the run decomposition rleEncodeInto shipped with, kept as
// a differential reference: test every exponent from the top, emit a token
// for each power that fits, and a plain hit for a remaining single cell.
func refRLEEncode(symbols []int, hitSym, runBase int) []int {
	var out []int
	i := 0
	for i < len(symbols) {
		if symbols[i] != hitSym {
			out = append(out, symbols[i])
			i++
			continue
		}
		j := i
		for j < len(symbols) && symbols[j] == hitSym {
			j++
		}
		run := j - i
		if run == 1 {
			out = append(out, hitSym)
		} else {
			for exp := maxRunExp; exp >= 1; exp-- {
				if run >= 1<<exp {
					out = append(out, runBase+exp)
					run -= 1 << exp
				}
			}
			if run == 1 {
				out = append(out, hitSym)
			}
		}
		i = j
	}
	return out
}

// TestRLEMatchesReference checks every run length a 16³ partition can hold
// (and one past it), plus a long odd run, against the reference: same
// tokens, and decoding restores the symbols. Runs sit between literals and
// at both ends of the stream.
func TestRLEMatchesReference(t *testing.T) {
	const hit, base = 32768, 65536
	lengths := make([]int, 0, 4098)
	for n := 1; n <= 4097; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1<<20+3)
	var buf, dec []int
	for _, n := range lengths {
		run := slices.Repeat([]int{hit}, n)
		for _, sym := range [][]int{
			run,
			slices.Concat([]int{7}, run, []int{9}),
			slices.Concat(run, []int{0}, run),
		} {
			want := refRLEEncode(sym, hit, base)
			buf = rleEncodeInto(buf, sym, hit, base)
			if !slices.Equal(buf, want) {
				t.Fatalf("run %d: tokens %v, reference %v", n, buf, want)
			}
			var err error
			dec, err = rleDecodeInto(dec[:0], buf, hit, base, len(sym))
			if err != nil {
				t.Fatalf("run %d: decode: %v", n, err)
			}
			if !slices.Equal(dec, sym) {
				t.Fatalf("run %d: decode does not invert encode", n)
			}
		}
	}
}

// TestRLEDecodeGrowsShortBuffer: the bulk run fill must not assume the
// caller's capacity; a nil buffer still decodes.
func TestRLEDecodeGrowsShortBuffer(t *testing.T) {
	const hit, base = 3, 10
	sym := []int{1, hit, hit, hit, hit, hit, 2, hit}
	got, err := rleDecodeInto(nil, rleEncode(sym, hit, base), hit, base, len(sym))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, sym) {
		t.Fatalf("got %v, want %v", got, sym)
	}
}
