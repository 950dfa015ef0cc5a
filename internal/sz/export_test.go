package sz

// CompressReconstructedValue and CompressMeanNeighbor expose the reference
// reconstructed-value encoder (flag-0 frames, Lorenzo and mean-neighbour
// predictors) to the external test package.
func CompressReconstructedValue(data []float32, nx, ny, nz int, opt Options) *Compressed {
	return compressReconstructedValue(data, nx, ny, nz, opt, Lorenzo3D)
}

func CompressMeanNeighbor(data []float32, nx, ny, nz int, opt Options) *Compressed {
	return compressReconstructedValue(data, nx, ny, nz, opt, meanNeighbor)
}
