package sz

import (
	"fmt"

	"repro/internal/stats"
)

// ScanResiduals runs one open-loop pass of the predictor over a brick,
// folding every value into out.Values and every prediction residual into
// out.Errs. "Open loop" means predictions read the original values rather
// than quantized reconstructions; the difference is bounded by the
// accumulated quantization error, which the ratio-quality literature (and
// Sec. 3.2 of the paper) shows leaves the residual distribution essentially
// unchanged for any bound the configurator would actually plan. One scan
// therefore characterizes the partition for *all* candidate error bounds —
// this is the single feature scan that replaces the calibration probe
// ladder.
//
// The caller owns out and resets it between partitions; the scan itself
// allocates only out.Errs' bin storage on first use.
func ScanResiduals(data []float32, nx, ny, nz int, p Predictor, out *stats.PredScan) error {
	if len(data) != nx*ny*nz || len(data) == 0 {
		return fmt.Errorf("sz: data length %d != %d×%d×%d", len(data), nx, ny, nz)
	}
	cell := func(x, y, z, idx int) {
		pred := predict(data, nx, ny, x, y, z, idx, p)
		v := float64(data[idx])
		out.Values.Add(v)
		out.Errs.Add(v - pred)
	}

	if p != Lorenzo3D {
		idx := 0
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					cell(x, y, z, idx)
					idx++
				}
			}
		}
		return nil
	}

	// Boundary planes through the generic predictor, a branch-free interior
	// over row views. Predictions read original values, not
	// reconstructions, so prev is a load, not the end of a dependency
	// chain, and the stencil is the encoder's Lorenzo on floats.
	nxny := nx * ny
	idx := 0
	for y := 0; y < ny; y++ { // z == 0 plane
		for x := 0; x < nx; x++ {
			cell(x, y, 0, idx)
			idx++
		}
	}
	for z := 1; z < nz; z++ {
		for x := 0; x < nx; x++ { // y == 0 row
			cell(x, 0, z, idx)
			idx++
		}
		for y := 1; y < ny; y++ {
			cell(0, y, z, idx) // x == 0 cell
			rowStart := idx
			idx += nx
			cur := data[rowStart : rowStart+nx]
			py := data[rowStart-nx : rowStart-nx+nx]
			pz := data[rowStart-nxny : rowStart-nxny+nx]
			pyz := data[rowStart-nx-nxny : rowStart-nx-nxny+nx]
			prev := float64(cur[0])
			for x := 1; x < nx; x++ {
				pred := prev + float64(py[x]) + float64(pz[x]) -
					float64(py[x-1]) - float64(pz[x-1]) - float64(pyz[x]) + float64(pyz[x-1])
				v := float64(cur[x])
				out.Values.Add(v)
				out.Errs.Add(v - pred)
				prev = v
			}
		}
	}
	return nil
}

// Symbols exposes the quantization-symbol buffer of the most recent
// compression through this scratch, truncated to that compression's cell
// count n (the buffer keeps high-water capacity across calls). Codec
// adapters use it to surface the quantization histogram the prediction
// pass already computed, so a model refresh is free wherever compression
// already ran.
func (s *Scratch) Symbols(n int) []int {
	if n > len(s.symbols) {
		n = len(s.symbols)
	}
	return s.symbols[:n]
}
