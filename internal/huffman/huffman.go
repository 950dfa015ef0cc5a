package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The coder is canonical: only code lengths are stored in the stream, and
// both sides derive identical codes by sorting (length, symbol). Symbols are
// non-negative ints (SZ quantization indices after offsetting by the
// quantization radius).
//
// The hot paths are table-driven. The SZ alphabet is 2·radius + 41 wide
// (65 577 at the default radius): [0, 2·radius) quantization codes, then the
// RLE run tokens at the top. A 16³ partition codes at most 4 096 tokens, so
// the alphabet is 16× the stream: dense slices indexed by symbol are fine
// for lookups, but no per-call work may walk them. The encoder counts into a
// dense table while collecting the symbols present, and only those entries
// are visited afterwards; the decoder resolves codes ≤ lutBits bits with a
// single peek into a first-level LUT, falling back to the canonical
// firstCode/count scan only for long codes. Both sides move the bitstream
// through a 64-bit accumulator instead of per-bit calls.

// maxCodeLen bounds code lengths so a code always fits in one accumulator
// refill with room to spare. If a frequency distribution would produce
// deeper codes, frequencies are flattened and the tree rebuilt.
const maxCodeLen = 48

// lutBits is the first-level decoder LUT width: codes up to this many bits
// decode with one table peek. 12 bits covers every symbol of a typical SZ
// stream (the quantization histogram is sharply peaked) at a 4096-entry
// table that is cheap to rebuild per partition.
const lutBits = 12

// denseLimit bounds the alphabet size for which the encoder uses dense
// slice-indexed frequency/code tables. Symbols above the limit (possible
// only through hostile or exotic radius settings — SZ's default alphabet
// tops out near 2¹⁶) fall back to map-based tables so a single huge symbol
// cannot force a giant allocation.
const denseLimit = 1 << 22

type code struct {
	bits uint64
	n    uint8
}

// symFreq is one present symbol and its frequency, in ascending symbol
// order. The Huffman tree and the canonical code assignment both run over
// this list, so the tie-breaking (and therefore the emitted bit stream) is
// deterministic.
type symFreq struct {
	sym  int
	freq int64
}

// treeNode is one internal node of the Huffman tree, stored in a flat
// arena after the n leaves: kid holds the arena indices of its children
// (leaf i is pairs[i]).
type treeNode struct {
	freq int64
	kid  [2]int32
}

// Scratch holds the reusable working state of the encoder: frequency and
// code tables, the tree arena, and the header buffer. The hot in situ path
// Huffman-codes thousands of equally sized partitions, so reusing one
// Scratch per worker removes the per-call table allocations. A Scratch must
// not be used concurrently; the zero value is ready to use.
type Scratch struct {
	freq  []int64    // dense frequency table, indexed by symbol
	codes []code     // dense code table, indexed by symbol
	syms  []int      // present symbols, collected as counted, then sorted
	pairs []symFreq  // present symbols, ascending
	work  []int64    // flattened frequencies for boundedCodeLengths retries
	lens  []uint8    // per-pair code lengths
	order []int32    // leaf indices sorted by (freq, index)
	nodes []treeNode // internal nodes, in creation order
	depth []int32    // per internal node
	hdr   []byte
	// Decoder state (DecompressWith).
	entries []symLen
	dec     decodeTable
	decOut  []int
}

// reuse returns buf emptied, with capacity for at least n elements.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// codeLengthsInto runs the Huffman algorithm over the present symbols and
// writes each pair's code length into lens. freqs[i] is the (possibly
// flattened) frequency of pairs[i].
//
// It is the classic two-queue construction: once the leaves are sorted,
// the tree costs O(n). Every merge takes the two least nodes by (freq,
// arena index), the order a binary heap pops them in (reference_test.go
// keeps a heap construction as the oracle), because that order fixes the
// lengths and so the stream bytes. Leaf i has arena index i; internal node
// k has index n+k. Both queues are ascending in (freq, index): the leaves
// by the sort, the internal nodes because no merge sums to less than the
// one before it. The least node is therefore one of the two queue heads,
// and on equal frequencies the leaf (the smaller index) wins.
func (s *Scratch) codeLengthsInto(lens []uint8, freqs []int64) {
	n := len(freqs)
	if n == 1 {
		lens[0] = 1
		return
	}
	order := reuse(s.order, n)
	for i := range n {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(freqs[a], freqs[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	nodes := reuse(s.nodes, n-1)[:n-1]
	leaf, next := 0, 0 // queue heads: order[leaf] and nodes[next]
	for k := range nodes {
		var kid [2]int32
		var sum int64
		for j := range kid {
			// next == k: every internal node made so far is merged.
			if leaf < n && (next == k || freqs[order[leaf]] <= nodes[next].freq) {
				kid[j] = order[leaf]
				sum += freqs[order[leaf]]
				leaf++
			} else {
				kid[j] = int32(n + next)
				sum += nodes[next].freq
				next++
			}
		}
		nodes[k] = treeNode{freq: sum, kid: kid}
	}

	// Children precede their parent, so one sweep down from the root (the
	// last node) assigns every depth. The pre-bounding tree can be as deep
	// as the alphabet; depths past maxCodeLen only need to exceed it (the
	// caller re-runs with flattened frequencies).
	depth := reuse(s.depth, n-1)[:n-1]
	depth[n-2] = 0
	for k := n - 2; k >= 0; k-- {
		d := depth[k] + 1
		for _, c := range nodes[k].kid {
			switch {
			case int(c) >= n:
				depth[int(c)-n] = d
			case d > maxCodeLen:
				lens[c] = maxCodeLen + 1
			default:
				lens[c] = uint8(d)
			}
		}
	}
	s.order, s.nodes, s.depth = order, nodes, depth
}

// boundedCodeLengthsInto retries with flattened frequencies until no code
// exceeds maxCodeLen. Flattening divides frequencies by 2 (floor, min 1),
// which strictly reduces the achievable depth and terminates.
func (s *Scratch) boundedCodeLengthsInto(lens []uint8, pairs []symFreq) {
	if cap(s.work) < len(pairs) {
		s.work = make([]int64, len(pairs))
	}
	work := s.work[:len(pairs)]
	for i, p := range pairs {
		work[i] = p.freq
	}
	for {
		s.codeLengthsInto(lens, work)
		ok := true
		for _, l := range lens {
			if l > maxCodeLen {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		for i, c := range work {
			nc := c / 2
			if nc < 1 {
				nc = 1
			}
			work[i] = nc
		}
	}
}

// canonicalAssign computes the canonical code of each pair from its length:
// symbols sorted by (length, symbol) receive consecutive codes. pairs are
// already in ascending symbol order, so a counting pass over lengths
// followed by one in-order sweep reproduces the sorted assignment without
// sorting.
func canonicalAssign(lens []uint8, assign func(pair int, c code)) {
	var lenCount [maxCodeLen + 2]int64
	for _, l := range lens {
		lenCount[l]++
	}
	var nextCode [maxCodeLen + 1]uint64
	var c uint64
	for l := 1; l <= maxCodeLen; l++ {
		c = (c + uint64(lenCount[l-1])) << 1
		nextCode[l] = c
	}
	for i, l := range lens {
		assign(i, code{bits: nextCode[l], n: l})
		nextCode[l]++
	}
}

// Errors returned by the coder.
var (
	ErrEmptyInput   = errors.New("huffman: empty symbol stream")
	ErrCorruptTable = errors.New("huffman: corrupt code table")
	ErrCorruptData  = errors.New("huffman: corrupt payload")
)

// Compress Huffman-codes a stream of non-negative symbols into a
// self-describing byte slice (code table + payload).
//
// Stream layout (all varints are unsigned LEB128 via encoding/binary):
//
//	uvarint  symbolCount (number of coded symbols)
//	uvarint  distinct    (number of table entries)
//	entries: uvarint symbol, byte length   (sorted by symbol)
//	payload: canonical-Huffman bits, zero-padded to a byte
func Compress(symbols []int) ([]byte, error) {
	return CompressWith(symbols, nil)
}

// CompressWith is Compress with caller-owned scratch tables; a nil scratch
// allocates fresh working state. Only the returned stream outlives the
// call, so one Scratch per worker makes the per-partition entropy stage
// allocation-flat.
func CompressWith(symbols []int, s *Scratch) ([]byte, error) {
	if len(symbols) == 0 {
		return nil, ErrEmptyInput
	}
	if s == nil {
		s = &Scratch{}
	}

	// Pass 1: range check + maxSymbol, so the frequency table can be a
	// dense slice instead of a map.
	maxSym := 0
	for _, v := range symbols {
		if v < 0 {
			return nil, fmt.Errorf("huffman: negative symbol %d", v)
		}
		if v > maxSym {
			maxSym = v
		}
	}

	var pairs []symFreq
	dense := maxSym < denseLimit
	if dense {
		// Symbols are collected as they first appear, so the work is
		// proportional to the stream, never to the alphabet. The frequency
		// table is kept all-zero between calls: only the collected entries
		// were touched, and only they are re-zeroed.
		if cap(s.freq) < maxSym+1 {
			s.freq = make([]int64, maxSym+1)
		}
		freq := s.freq[:maxSym+1]
		syms := reuse(s.syms, min(len(symbols), maxSym+1))
		for _, v := range symbols {
			f := freq[v]
			if f == 0 {
				syms = append(syms, v)
			}
			freq[v] = f + 1
		}
		slices.Sort(syms)
		pairs = reuse(s.pairs, len(syms))
		for _, sym := range syms {
			pairs = append(pairs, symFreq{sym: sym, freq: freq[sym]})
			freq[sym] = 0
		}
		s.syms = syms
	} else {
		// Cold fallback for absurd alphabets (hostile radius settings):
		// identical stream, map-backed tables.
		m := make(map[int]int64, 1024)
		for _, v := range symbols {
			m[v]++
		}
		pairs = reuse(s.pairs, len(m))
		for sym, f := range m {
			pairs = append(pairs, symFreq{sym: sym, freq: f})
		}
		slices.SortFunc(pairs, func(a, b symFreq) int { return cmp.Compare(a.sym, b.sym) })
	}
	s.pairs = pairs

	if cap(s.lens) < len(pairs) {
		s.lens = make([]uint8, len(pairs))
	}
	lens := s.lens[:len(pairs)]
	s.boundedCodeLengthsInto(lens, pairs)

	// Header + exact payload size in one output allocation: the payload
	// bit count is Σ freq·len, known before a single bit is written.
	hdr := s.hdr[:0]
	hdr = binary.AppendUvarint(hdr, uint64(len(symbols)))
	hdr = binary.AppendUvarint(hdr, uint64(len(pairs)))
	var totalBits uint64
	for i, p := range pairs {
		hdr = binary.AppendUvarint(hdr, uint64(p.sym))
		hdr = append(hdr, lens[i])
		totalBits += uint64(p.freq) * uint64(lens[i])
	}
	s.hdr = hdr
	out := make([]byte, len(hdr)+int((totalBits+7)/8))
	copy(out, hdr)
	pay := out[len(hdr):]

	// Payload: canonical-Huffman bits MSB-first through a 64-bit
	// accumulator. Codes are ≤ maxCodeLen (48) bits and at most 7 bits are
	// pending between symbols, so the accumulator never overflows. The
	// dense loop is the hot path: one slice index per symbol.
	var acc uint64
	var nacc uint
	pos := 0
	if dense {
		if cap(s.codes) < maxSym+1 {
			s.codes = make([]code, maxSym+1)
		}
		codes := s.codes[:maxSym+1]
		canonicalAssign(lens, func(i int, c code) { codes[pairs[i].sym] = c })
		for _, sym := range symbols {
			c := codes[sym]
			acc = acc<<c.n | c.bits
			nacc += uint(c.n)
			for nacc >= 8 {
				nacc -= 8
				pay[pos] = byte(acc >> nacc)
				pos++
			}
		}
	} else {
		codes := make(map[int]code, len(pairs))
		canonicalAssign(lens, func(i int, c code) { codes[pairs[i].sym] = c })
		for _, sym := range symbols {
			c := codes[sym]
			acc = acc<<c.n | c.bits
			nacc += uint(c.n)
			for nacc >= 8 {
				nacc -= 8
				pay[pos] = byte(acc >> nacc)
				pos++
			}
		}
	}
	if nacc > 0 {
		pay[pos] = byte(acc << (8 - nacc))
	}
	return out, nil
}

// symLen is one parsed code-table entry.
type symLen struct {
	sym int
	n   uint8
}

// decodeTable is the canonical decoding structure: a first-level LUT that
// resolves codes ≤ peek bits in one lookup, plus the per-length
// firstCode/firstIdx/count arrays for the long-code fallback.
type decodeTable struct {
	maxLen    int
	peek      uint
	firstCode [maxCodeLen + 1]uint64
	firstIdx  [maxCodeLen + 1]int32
	count     [maxCodeLen + 1]int32
	symbols   []int // sorted by (length, symbol)
	// lut entries pack (index into symbols)<<6 | length; 0 means "longer
	// than peek bits" (length 0 is never valid).
	lut []uint32
}

// build (re)initialises the table from parsed entries, reusing the symbol
// and LUT storage of a previous build. Canonical order is (length, symbol):
// entries in ascending symbol order are bucketed by length, stably, in
// O(len(entries)).
func (t *decodeTable) build(entries []symLen) error {
	// Legit streams store the table in ascending symbol order. The format
	// does not forbid other orders, so sort those; either way, equal
	// neighbours are duplicate symbols, which make decoding ambiguous.
	bySym := func(a, b symLen) int { return cmp.Compare(a.sym, b.sym) }
	if !slices.IsSortedFunc(entries, bySym) {
		slices.SortFunc(entries, bySym)
	}
	clear(t.count[:])
	for i, e := range entries {
		if e.n == 0 || e.n > maxCodeLen || i > 0 && e.sym == entries[i-1].sym {
			return ErrCorruptTable
		}
		t.count[e.n]++
	}
	// Per-length first code and first index; Kraft check: the codes of
	// each length must fit in that many bits.
	t.maxLen = 0
	var c uint64
	var idx int32
	for n := 1; n <= maxCodeLen; n++ {
		c = (c + uint64(t.count[n-1])) << 1
		t.firstCode[n], t.firstIdx[n] = c, idx
		idx += t.count[n]
		if c+uint64(t.count[n]) > 1<<uint(n) {
			return ErrCorruptTable
		}
		if t.count[n] > 0 {
			t.maxLen = n
		}
	}
	if cap(t.symbols) < len(entries) {
		t.symbols = make([]int, len(entries))
	}
	t.symbols = t.symbols[:len(entries)]
	next := t.firstIdx
	for _, e := range entries {
		t.symbols[next[e.n]] = e.sym
		next[e.n]++
	}
	t.peek = uint(min(t.maxLen, lutBits))
	if cap(t.lut) < 1<<t.peek {
		t.lut = make([]uint32, 1<<t.peek)
	} else {
		t.lut = t.lut[:1<<t.peek]
		clear(t.lut)
	}
	for n := uint(1); n <= t.peek; n++ {
		span := uint64(1) << (t.peek - n)
		for k := int32(0); k < t.count[n]; k++ {
			base := (t.firstCode[n] + uint64(k)) << (t.peek - n)
			entry := uint32(t.firstIdx[n]+k)<<6 | uint32(n)
			fill := t.lut[base : base+span]
			for j := range fill {
				fill[j] = entry
			}
		}
	}
	return nil
}

// Decompress reverses Compress. The decoder reads the bitstream through a
// 64-bit accumulator and resolves codes ≤ lutBits bits with one first-level
// LUT peek; longer codes fall back to the canonical per-length scan.
func Decompress(data []byte) ([]int, error) {
	return decompress(data, nil)
}

// DecompressWith is Decompress with caller-owned scratch state: the decode
// table, entry list, and the returned token slice all live in s, so the
// result is only valid until the scratch's next decode. The hot
// per-partition decode path uses this to run without per-call table
// allocations.
func DecompressWith(data []byte, s *Scratch) ([]int, error) {
	if s == nil {
		s = &Scratch{}
	}
	return decompress(data, s)
}

func decompress(data []byte, s *Scratch) ([]int, error) {
	symCount, n1 := binary.Uvarint(data)
	if n1 <= 0 {
		return nil, ErrCorruptTable
	}
	data = data[n1:]
	distinct, n2 := binary.Uvarint(data)
	if n2 <= 0 || distinct == 0 {
		return nil, ErrCorruptTable
	}
	data = data[n2:]
	// Each entry costs ≥ 2 bytes, so a claimed count beyond that is
	// corrupt before any parsing work happens.
	if distinct > uint64(len(data))/2 {
		return nil, ErrCorruptTable
	}
	var entries []symLen
	if s != nil && cap(s.entries) >= int(distinct) {
		entries = s.entries[:0]
	} else {
		entries = make([]symLen, 0, distinct)
	}
	for i := uint64(0); i < distinct; i++ {
		sym, ns := binary.Uvarint(data)
		if ns <= 0 || ns >= len(data)+1 {
			return nil, ErrCorruptTable
		}
		data = data[ns:]
		if len(data) == 0 {
			return nil, ErrCorruptTable
		}
		entries = append(entries, symLen{sym: int(sym), n: data[0]})
		data = data[1:]
	}
	if s != nil {
		s.entries = entries
	}
	var local decodeTable
	t := &local
	if s != nil {
		t = &s.dec
	}
	if err := t.build(entries); err != nil {
		return nil, err
	}

	// Hostile-header guard: symCount is attacker-controlled, but each
	// symbol costs at least one payload bit, so the preallocation is capped
	// by the remaining payload size.
	bitsAvail := uint64(len(data)) * 8
	capHint := symCount
	if capHint > bitsAvail {
		capHint = bitsAvail
	}
	var out []int
	if s != nil && uint64(cap(s.decOut)) >= capHint {
		out = s.decOut[:0]
	} else {
		out = make([]int, 0, capHint)
	}

	var acc uint64 // pending bits, MSB-aligned at bit 63
	var nacc uint
	pos := 0
	peek := t.peek
	maxLen := uint(t.maxLen)
	for uint64(len(out)) < symCount {
		// Refill so the accumulator holds every bit a code could need
		// (maxCodeLen ≤ 48 < 57). Past the end of the payload the low bits
		// stay zero, exactly like the encoder's zero padding; bitsAvail
		// still bounds what may be consumed.
		for nacc <= 56 && pos < len(data) {
			acc |= uint64(data[pos]) << (56 - nacc)
			nacc += 8
			pos++
		}
		var n uint
		var sym int
		if e := t.lut[acc>>(64-peek)]; e != 0 {
			n = uint(e & 63)
			sym = t.symbols[e>>6]
		} else {
			n = peek
			for {
				n++
				if n > maxLen {
					return nil, ErrCorruptData
				}
				c := acc >> (64 - n)
				if t.count[n] > 0 && c >= t.firstCode[n] &&
					c-t.firstCode[n] < uint64(t.count[n]) {
					sym = t.symbols[uint64(t.firstIdx[n])+(c-t.firstCode[n])]
					break
				}
			}
		}
		if uint64(n) > bitsAvail {
			return nil, ErrCorruptData
		}
		bitsAvail -= uint64(n)
		acc <<= n
		nacc -= n
		out = append(out, sym)
	}
	if s != nil {
		s.decOut = out
	}
	return out, nil
}

// EncodedSizeBound returns a loose upper bound on the compressed size of n
// symbols with the given distinct-symbol count, used for pre-allocation.
func EncodedSizeBound(n, distinct int) int {
	return 16 + 10*distinct + n*maxCodeLen/8 + 1
}
