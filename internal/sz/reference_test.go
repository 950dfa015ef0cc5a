package sz

import (
	"math"

	"repro/internal/huffman"
)

// Reference loops: the Lorenzo3D encoders and the lattice decoder as the
// package ran them while two Lorenzo encoders coexisted — boundary planes
// through per-cell predictors, a split interior. The production loops are
// held to them cell for cell, and refPredictThenQuantize still writes the
// reconstructed-value (flag-0) Lorenzo and mean-neighbour frames that
// older archives hold.
// The one change is the float-to-lattice conversion, which goes through
// latticeCoord so that the references do not depend on the CPU either.

// refPredictInt is the Lorenzo predictor on the integer lattice, with
// explicit existence tests for the causal neighbours.
func refPredictInt(lat []int64, nx, ny int, x, y, z int) int64 {
	idx := (z*ny+y)*nx + x
	var fx, fy, fz, fxy, fxz, fyz, fxyz int64
	hasX, hasY, hasZ := x > 0, y > 0, z > 0
	if hasX {
		fx = lat[idx-1]
	}
	if hasY {
		fy = lat[idx-nx]
	}
	if hasZ {
		fz = lat[idx-nx*ny]
	}
	if hasX && hasY {
		fxy = lat[idx-1-nx]
	}
	if hasX && hasZ {
		fxz = lat[idx-1-nx*ny]
	}
	if hasY && hasZ {
		fyz = lat[idx-nx-nx*ny]
	}
	if hasX && hasY && hasZ {
		fxyz = lat[idx-1-nx-nx*ny]
	}
	return fx + fy + fz - fxy - fxz - fyz + fxyz
}

// refQuantizeThenPredict is the lattice encoder with a precomputed,
// halo-free lattice.
func refQuantizeThenPredict(data []float32, nx, ny, nz int, eb float64, radius int) ([]int, []byte) {
	n := len(data)
	twoEB := 2 * eb
	lattice := make([]int64, n)
	for i, v := range data {
		lattice[i] = latticeCoord(v, twoEB)
	}
	symbols := make([]int, n)
	var outliers []byte

	cell := func(x, y, z, idx int) {
		pred := refPredictInt(lattice, nx, ny, x, y, z)
		d := lattice[idx] - pred
		inRange := d > int64(-radius) && d < int64(radius)
		exact := math.Abs(float64(float32(twoEB*float64(lattice[idx])))-
			float64(data[idx])) <= eb
		if inRange && exact {
			symbols[idx] = int(d) + radius
		} else {
			symbols[idx] = 0
			outliers = appendFloat32(outliers, data[idx])
		}
	}

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
			cur := lattice[rowStart : rowStart+nx]
			ly := lattice[rowStart-nx : rowStart-nx+nx]
			lz := lattice[rowStart-nxny : rowStart-nxny+nx]
			lyz := lattice[rowStart-nx-nxny : rowStart-nx-nxny+nx]
			drow := data[rowStart : rowStart+nx]
			srow := symbols[rowStart : rowStart+nx]
			for x := 1; x < nx; x++ {
				pred := cur[x-1] + ly[x] + lz[x] - ly[x-1] - lz[x-1] - lyz[x] + lyz[x-1]
				d := cur[x] - pred
				inRange := d > int64(-radius) && d < int64(radius)
				exact := math.Abs(float64(float32(twoEB*float64(cur[x])))-
					float64(drow[x])) <= eb
				if inRange && exact {
					srow[x] = int(d) + radius
				} else {
					srow[x] = 0
					outliers = appendFloat32(outliers, drow[x])
				}
			}
		}
	}
	return symbols, outliers
}

// refReconstructLattice is the lattice decoder with a halo-free lattice and
// a verbatim-cell mask resolved in a second pass.
func refReconstructLattice(symbols []int, outliers []byte, nx, ny, nz int, eb float64, radius int) ([]float32, error) {
	twoEB := 2 * eb
	lat := make([]int64, len(symbols))
	out := make([]float32, len(symbols))
	verbatim := make([]bool, len(symbols))
	outPos := 0
	idx := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if s := symbols[idx]; s == 0 {
					v, pos, err := readFloat32(outliers, outPos)
					if err != nil {
						return nil, err
					}
					lat[idx] = latticeCoord(v, twoEB)
					out[idx] = v
					verbatim[idx] = true
					outPos = pos
				} else {
					lat[idx] = refPredictInt(lat, nx, ny, x, y, z) + int64(s-radius)
				}
				idx++
			}
		}
	}
	for i, q := range lat {
		if !verbatim[i] {
			out[i] = float32(twoEB * float64(q))
		}
	}
	return out, nil
}

// refPredictThenQuantize is the reconstructed-value encoder with its
// branch-free Lorenzo interior: boundary cells go through the generic
// predictor, interior cells read seven flat offsets (mean-neighbour frames
// take the generic predictor everywhere). It returns the encoder's own
// reconstruction alongside the stream.
func refPredictThenQuantize(data []float32, nx, ny, nz int, eb float64, opt Options, p Predictor) ([]int, []byte, []float32) {
	n := len(data)
	radius := opt.radius()
	recon := make([]float32, n)
	symbols := make([]int, n)
	var outliers []byte
	twoEB := 2 * eb

	cell := func(x, y, z, idx int) {
		pred := predict(recon, nx, ny, x, y, z, idx, p)
		v := float64(data[idx])
		diff := v - pred
		q := int(math.Floor(diff/twoEB + 0.5))
		if q > -radius && q < radius {
			dec := pred + float64(twoEB*float64(q))
			if math.Abs(float64(float32(dec))-v) <= eb {
				symbols[idx] = q + radius
				recon[idx] = float32(dec)
				return
			}
		}
		symbols[idx] = 0
		outliers = appendFloat32(outliers, data[idx])
		recon[idx] = data[idx]
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
		return symbols, outliers, recon
	}

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
			cur := recon[rowStart : rowStart+nx]
			py := recon[rowStart-nx : rowStart-nx+nx]
			pz := recon[rowStart-nxny : rowStart-nxny+nx]
			pyz := recon[rowStart-nx-nxny : rowStart-nx-nxny+nx]
			drow := data[rowStart : rowStart+nx]
			srow := symbols[rowStart : rowStart+nx]
			prev := float64(cur[0])
			for x := 1; x < nx; x++ {
				fy := float64(py[x])
				fz := float64(pz[x])
				fxy := float64(py[x-1])
				fxz := float64(pz[x-1])
				fyz := float64(pyz[x])
				fxyz := float64(pyz[x-1])
				pred := prev + fy + fz - fxy - fxz - fyz + fxyz
				v := float64(drow[x])
				q := int(math.Floor((v-pred)/twoEB + 0.5))
				if q > -radius && q < radius {
					dec := pred + float64(twoEB*float64(q))
					decF := float32(dec)
					decR := float64(decF)
					if math.Abs(decR-v) <= eb {
						srow[x] = q + radius
						cur[x] = decF
						prev = decR
						continue
					}
				}
				srow[x] = 0
				outliers = appendFloat32(outliers, drow[x])
				cur[x] = drow[x]
				prev = float64(drow[x])
			}
		}
	}
	return symbols, outliers, recon
}

// refFrame entropy-codes a reference symbol stream into a frame exactly as
// CompressSliceWith does (ABS mode), with the given lattice flag.
func refFrame(symbols []int, outliers []byte, nx, ny, nz int, opt Options, lattice bool) *Compressed {
	radius := opt.radius()
	stream, err := huffman.Compress(rleEncodeInto(nil, symbols, radius, 2*radius))
	if err != nil {
		panic(err)
	}
	return &Compressed{
		Nx: nx, Ny: ny, Nz: nz,
		Opt:        opt,
		lattice:    lattice,
		codeStream: stream,
		outliers:   outliers,
	}
}

// compressReconstructedValue writes a flag-0 frame with predictor p
// through the reference reconstructed-value encoder.
func compressReconstructedValue(data []float32, nx, ny, nz int, opt Options, p Predictor) *Compressed {
	symbols, outliers, _ := refPredictThenQuantize(data, nx, ny, nz, opt.ErrorBound, opt, p)
	c := refFrame(symbols, outliers, nx, ny, nz, opt, false)
	c.predictor = p
	return c
}
