package huffman

// DiffStream exposes the reference differential to the external test
// package, which may import the codecs built on this one.
var DiffStream = diffStream
