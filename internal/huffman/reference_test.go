package huffman

// The naive map-based coder that shipped before the table-driven rewrite,
// retained verbatim as a differential reference: the rewrite must emit
// byte-identical streams (the archive format pins the bits, and the golden
// fixtures in internal/core depend on it) and decode them identically. Only
// the reference encoder is kept — decoding is cross-checked by running the
// production decoder over reference-encoded streams and vice versa.

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

type refHeapNode struct {
	freq        int64
	order       int // tie-break for determinism
	symbol      int
	left, right *refHeapNode
}

type refNodeHeap []*refHeapNode

func (h refNodeHeap) Len() int { return len(h) }
func (h refNodeHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].order < h[j].order
}
func (h refNodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refNodeHeap) Push(x interface{}) { *h = append(*h, x.(*refHeapNode)) }
func (h *refNodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refCodeLengths(freqs map[int]int64) map[int]int {
	syms := make([]int, 0, len(freqs))
	for s := range freqs {
		syms = append(syms, s)
	}
	sort.Ints(syms)
	if len(syms) == 1 {
		return map[int]int{syms[0]: 1}
	}
	h := make(refNodeHeap, 0, len(syms))
	order := 0
	for _, s := range syms {
		h = append(h, &refHeapNode{freq: freqs[s], order: order, symbol: s})
		order++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*refHeapNode)
		b := heap.Pop(&h).(*refHeapNode)
		heap.Push(&h, &refHeapNode{freq: a.freq + b.freq, order: order, symbol: -1, left: a, right: b})
		order++
	}
	root := h[0]
	lengths := make(map[int]int, len(syms))
	var walk func(n *refHeapNode, depth int)
	walk = func(n *refHeapNode, depth int) {
		if n.left == nil && n.right == nil {
			if depth == 0 {
				depth = 1
			}
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

func refBoundedCodeLengths(freqs map[int]int64) map[int]int {
	f := freqs
	for {
		lengths := refCodeLengths(f)
		max := 0
		for _, l := range lengths {
			if l > max {
				max = l
			}
		}
		if max <= maxCodeLen {
			return lengths
		}
		g := make(map[int]int64, len(f))
		for s, c := range f {
			nc := c / 2
			if nc < 1 {
				nc = 1
			}
			g[s] = nc
		}
		f = g
	}
}

func refCanonicalCodes(lengths map[int]int) map[int]code {
	type sl struct{ sym, n int }
	list := make([]sl, 0, len(lengths))
	for s, n := range lengths {
		list = append(list, sl{s, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n < list[j].n
		}
		return list[i].sym < list[j].sym
	})
	codes := make(map[int]code, len(list))
	var c uint64
	prevLen := 0
	for _, e := range list {
		c <<= uint(e.n - prevLen)
		codes[e.sym] = code{bits: c, n: uint8(e.n)}
		c++
		prevLen = e.n
	}
	return codes
}

// refCompress is the pre-rewrite Compress, byte for byte.
func refCompress(symbols []int) ([]byte, error) {
	if len(symbols) == 0 {
		return nil, ErrEmptyInput
	}
	freqs := make(map[int]int64, 1024)
	for _, s := range symbols {
		if s < 0 {
			return nil, fmt.Errorf("huffman: negative symbol %d", s)
		}
		freqs[s]++
	}
	lengths := refBoundedCodeLengths(freqs)
	codes := refCanonicalCodes(lengths)

	header := make([]byte, 0, 16+5*len(lengths))
	header = binary.AppendUvarint(header, uint64(len(symbols)))
	header = binary.AppendUvarint(header, uint64(len(lengths)))
	syms := make([]int, 0, len(lengths))
	for s := range lengths {
		syms = append(syms, s)
	}
	sort.Ints(syms)
	for _, s := range syms {
		header = binary.AppendUvarint(header, uint64(s))
		header = append(header, byte(lengths[s]))
	}

	w := NewBitWriter(len(symbols) / 2)
	for _, s := range symbols {
		c := codes[s]
		w.WriteBits(c.bits, uint(c.n))
	}
	return append(header, w.Bytes()...), nil
}

// diffStream asserts the production encoder reproduces the reference bytes
// exactly and that both decoders agree on the symbols.
func diffStream(t *testing.T, name string, symbols []int) {
	t.Helper()
	want, err := refCompress(symbols)
	if err != nil {
		t.Fatalf("%s: reference encode: %v", name, err)
	}
	var s Scratch
	got, err := CompressWith(symbols, &s)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s: stream diverges from reference at byte %d (%d vs %d bytes total)",
			name, n, len(got), len(want))
	}
	dec, err := Decompress(got)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if len(dec) != len(symbols) {
		t.Fatalf("%s: decoded %d symbols, want %d", name, len(dec), len(symbols))
	}
	for i := range symbols {
		if dec[i] != symbols[i] {
			t.Fatalf("%s: symbol %d: got %d want %d", name, i, dec[i], symbols[i])
		}
	}
}

func TestDifferentialSingleSymbol(t *testing.T) {
	diffStream(t, "one", []int{9})
	run := make([]int, 4096)
	for i := range run {
		run[i] = 32768
	}
	diffStream(t, "run", run)
}

func TestDifferentialFullAlphabet(t *testing.T) {
	// Every symbol of a 2¹²-ary alphabet exactly once (flat tree, all
	// lengths equal) and once with a permuted repeat pattern.
	flat := make([]int, 4096)
	for i := range flat {
		flat[i] = i
	}
	diffStream(t, "flat", flat)
	r := stats.NewRNG(21)
	mixed := make([]int, 20000)
	for i := range mixed {
		mixed[i] = r.Intn(4096)
	}
	diffStream(t, "mixed", mixed)
}

func TestDifferentialDeepTree(t *testing.T) {
	// Fibonacci frequencies force depths ≥ maxCodeLen, exercising the
	// bounded-length flattening retry on both coders.
	var symbols []int
	a, b := 1, 1
	for s := 0; s < 72; s++ {
		n := a
		if n > 200000 {
			n = 200000
		}
		for k := 0; k < n; k++ {
			symbols = append(symbols, s)
		}
		a, b = b, a+b
	}
	diffStream(t, "fibonacci", symbols)
}

func TestDifferentialSkewedGaussian(t *testing.T) {
	// SZ-like stream: sharply peaked Gaussian around the center code with
	// sparse far tails, the distribution the first-level LUT is sized for.
	r := stats.NewRNG(22)
	symbols := make([]int, 120000)
	for i := range symbols {
		g := r.NormFloat64()
		switch {
		case math.Abs(g) > 3.5: // rare far outlier
			symbols[i] = 32768 + int(g*4000)
		default:
			symbols[i] = 32768 + int(g*2)
		}
	}
	diffStream(t, "gaussian", symbols)
}

func TestDifferentialRandomStreams(t *testing.T) {
	r := stats.NewRNG(23)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(3000)
		alpha := 1 + r.Intn(1<<uint(1+r.Intn(16)))
		symbols := make([]int, n)
		for i := range symbols {
			symbols[i] = r.Intn(alpha)
		}
		diffStream(t, fmt.Sprintf("trial%d(n=%d,alpha=%d)", trial, n, alpha), symbols)
	}
}

func TestDifferentialSparseAlphabet(t *testing.T) {
	// Symbols above denseLimit take the map-backed cold path (hostile or
	// exotic radius settings); the stream must still match the reference.
	symbols := []int{denseLimit + 7, 3, 3, denseLimit + 7, 1 << 28, 3, 0, 1 << 28, 3, 3}
	diffStream(t, "sparse", symbols)
	one := []int{1 << 30}
	diffStream(t, "sparse-single", one)
}

// szTopSym is the highest symbol SZ emits at the default radius: the run
// token of exponent 40, at 2·32768 + 40.
const szTopSym = 65576

func TestDifferentialAlphabetEnds(t *testing.T) {
	// Only the two ends of the SZ alphabet are present: the dense table
	// spans 65 577 entries for a handful of tokens.
	diffStream(t, "ends", []int{0, szTopSym, szTopSym, 0, szTopSym})
	diffStream(t, "top-only", []int{szTopSym})
	skew := make([]int, 4096)
	skew[4095] = szTopSym
	diffStream(t, "ends-skewed", skew)
}

// TestScratchAcrossAlphabets reuses one Scratch for a wide alphabet, a
// narrow one, then the wide one again. Each stream must equal a fresh
// encode, and the frequency table must be all-zero after every call, since
// the encoder relies on that instead of clearing it.
func TestScratchAcrossAlphabets(t *testing.T) {
	r := stats.NewRNG(25)
	wide := make([]int, 4096)
	for i := range wide {
		wide[i] = 32768 + r.Intn(9) - 4
		if i%97 == 0 {
			wide[i] = 65537 + r.Intn(12) // run tokens
		}
	}
	wide[17] = szTopSym
	narrow := make([]int, 3000)
	for i := range narrow {
		narrow[i] = r.Intn(300)
	}
	var s Scratch
	for i, sym := range [][]int{wide, narrow, wide} {
		fresh, err := CompressWith(sym, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompressWith(sym, &s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fresh) {
			t.Fatalf("call %d: reused scratch diverged from a fresh encode", i)
		}
		if want, _ := refCompress(sym); !bytes.Equal(got, want) {
			t.Fatalf("call %d: stream diverged from the reference", i)
		}
		for sym, f := range s.freq[:cap(s.freq)] {
			if f != 0 {
				t.Fatalf("call %d: freq[%d] = %d left behind", i, sym, f)
			}
		}
	}
}

func TestDifferentialScratchReuse(t *testing.T) {
	// One Scratch across wildly different streams must not leak state
	// between calls (dense tables shrink and grow, lengths change).
	var s Scratch
	r := stats.NewRNG(24)
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(2000)
		symbols := make([]int, n)
		for i := range symbols {
			symbols[i] = r.Intn(1 + trial*97)
		}
		want, err := refCompress(symbols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompressWith(symbols, &s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: scratch reuse diverged from reference", trial)
		}
	}
}

// heapNode is one node of an arena binary-heap Huffman construction; the
// arena index is the (freq, index) tie-break.
type heapNode struct {
	freq        int64
	left, right int32 // arena indices, -1 for leaves
	pair        int32 // index into freqs (leaves only)
}

// heapCodeLengths is that construction, kept as the reference the two-queue
// merge must reproduce length for length (including the maxCodeLen+1
// marker on over-deep leaves).
func heapCodeLengths(lens []uint8, freqs []int64) {
	n := len(freqs)
	if n == 1 {
		lens[0] = 1
		return
	}
	nodes := make([]heapNode, 0, 2*n-1)
	h := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, heapNode{freq: freqs[i], left: -1, right: -1, pair: int32(i)})
		h = append(h, int32(i))
	}
	less := func(a, b int32) bool {
		if nodes[a].freq != nodes[b].freq {
			return nodes[a].freq < nodes[b].freq
		}
		return a < b
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	pop := func() int32 {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(0)
		return top
	}
	for len(h) > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, heapNode{freq: nodes[a].freq + nodes[b].freq, left: a, right: b, pair: -1})
		h = append(h, int32(len(nodes)-1))
		siftUp(len(h) - 1)
	}
	type frame struct{ node, depth int32 }
	stack := []frame{{h[0], 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &nodes[f.node]
		if nd.left < 0 {
			lens[nd.pair] = uint8(min(max(f.depth, 1), maxCodeLen+1))
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
}

// TestTwoQueueMatchesHeapConstruction: over random histograms (and the shapes
// that stress ties and depth) the two-queue merge yields the heap
// construction's lengths exactly, both raw and after the maxCodeLen flattening
// retry, through one reused Scratch.
func TestTwoQueueMatchesHeapConstruction(t *testing.T) {
	var s Scratch
	check := func(name string, freqs []int64) {
		t.Helper()
		want := make([]uint8, len(freqs))
		heapCodeLengths(want, freqs)
		got := make([]uint8, len(freqs))
		s.codeLengthsInto(got, freqs)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: lengths %v, heap construction %v", name, got, want)
		}
		pairs := make([]symFreq, len(freqs))
		for i, f := range freqs {
			pairs[i] = symFreq{sym: i, freq: f}
		}
		work := append([]int64(nil), freqs...)
		for {
			heapCodeLengths(want, work)
			if slices.Max(want) <= maxCodeLen {
				break
			}
			for i, c := range work {
				work[i] = max(c/2, 1)
			}
		}
		s.boundedCodeLengthsInto(got, pairs)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: bounded lengths %v, heap construction %v", name, got, want)
		}
	}
	check("n=1", []int64{7})
	check("n=2", []int64{3, 3})
	check("n=2 skewed", []int64{9, 1})
	for _, n := range []int{3, 4, 5, 17, 256, 1000} {
		eq := make([]int64, n)
		for i := range eq {
			eq[i] = 5
		}
		check(fmt.Sprintf("all-equal n=%d", n), eq)
	}
	// Fibonacci frequencies build a tree as deep as the alphabet, forcing
	// over-deep leaves and the flattening retry.
	fib := []int64{1, 1}
	for len(fib) < 80 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	check("fibonacci", fib)
	rev := slices.Clone(fib)
	slices.Reverse(rev)
	check("fibonacci reversed", rev)
	r := stats.NewRNG(25)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(1+r.Intn(3000))
		spread := int64(1) << uint(r.Intn(20))
		freqs := make([]int64, n)
		for i := range freqs {
			freqs[i] = 1 + int64(r.Uint64()%uint64(spread))
		}
		check(fmt.Sprintf("trial %d (n=%d, spread=%d)", trial, n, spread), freqs)
	}
}
