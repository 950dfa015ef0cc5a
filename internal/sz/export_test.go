package sz

// CompressReconstructedValue exposes the reference reconstructed-value
// encoder (flag-0 frames) to the external test package.
var CompressReconstructedValue = compressReconstructedValue
