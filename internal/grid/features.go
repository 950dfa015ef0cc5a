package grid

// Band is a half-open value interval [Lo, Hi). The zero value (and any band
// with Hi ≤ Lo) is empty: Scan counts nothing and skips the comparison.
type Band struct{ Lo, Hi float64 }

// HaloBand is the threshold band [t−refEB, t+refEB) whose occupancy is n in
// the paper's eb→cell function n_bc = n·eb (Fig. 14): the cells a
// reconstruction error of refEB can push across the halo-finder boundary.
func HaloBand(tBoundary, refEB float64) Band {
	return Band{Lo: tBoundary - refEB, Hi: tBoundary + refEB}
}

// Empty reports whether the band can contain no value.
func (b Band) Empty() bool { return !(b.Hi > b.Lo) }

// Scan is the per-partition feature scan the adaptive configurator runs in
// situ (Sec. 3.5–3.6 of the paper) — the *only* data inspection the method
// needs before choosing error bounds, which is why the paper's overhead is
// ~1 % of compression time. It visits brick part of f in place (no brick
// copy: the simulation already owns the data), x-fastest, and returns from a
// single pass over memory
//
//   - meanAbs, mean |value|, which drives the rate-coefficient prediction
//     C_m (Fig. 10a; see model.RateModel for why |·|), and
//   - inBand, the number of cells inside band — the halo boundary-cell count
//     when band is HaloBand, 0 for an empty band.
func Scan(f *Field3D, part Partition, band Band) (meanAbs float64, inBand int) {
	nx := part.X1 - part.X0
	counting := !band.Empty()
	var sum float64
	for z := part.Z0; z < part.Z1; z++ {
		for y := part.Y0; y < part.Y1; y++ {
			base := f.Index(part.X0, y, z)
			row := f.Data[base : base+nx]
			for _, x := range row {
				v := float64(x)
				if v < 0 {
					sum -= v
				} else {
					sum += v
				}
			}
			if counting {
				for _, x := range row {
					if v := float64(x); v >= band.Lo && v < band.Hi {
						inBand++
					}
				}
			}
		}
	}
	return sum / float64(part.Len()), inBand
}
