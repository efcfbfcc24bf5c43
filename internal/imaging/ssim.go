package imaging

// SSIM stabilization constants for a unit dynamic range (images in [0,1]):
// C1 = (0.01·L)², C2 = (0.03·L)² with L = 1, per Wang et al. 2004.
const (
	ssimC1 = 0.01 * 0.01
	ssimC2 = 0.03 * 0.03
)

// SSIM returns the structural similarity index between a reconstruction and
// a reference of identical dimensions, computed over the whole image as a
// single window (the evaluation images here are small crops, so the global
// statistics are the windowed statistics). The result lies in [-1, 1];
// 1 means structurally identical. Unlike PSNR, SSIM compares luminance,
// contrast and structure jointly, so a reconstruction that is a blended
// mean of several samples (the OASIS failure mode for attacks) scores low
// even when its pixel-wise error is moderate.
func SSIM(recon, ref *Image) float64 {
	if !recon.SameDims(ref) {
		panic("imaging: SSIM dimension mismatch")
	}
	n := float64(len(recon.Pix))
	muA, muB := 0.0, 0.0
	for i := range recon.Pix {
		muA += recon.Pix[i]
		muB += ref.Pix[i]
	}
	muA /= n
	muB /= n
	varA, varB, cov := 0.0, 0.0, 0.0
	for i := range recon.Pix {
		da := recon.Pix[i] - muA
		db := ref.Pix[i] - muB
		varA += da * da
		varB += db * db
		cov += da * db
	}
	varA /= n
	varB /= n
	cov /= n
	return ((2*muA*muB + ssimC1) * (2*cov + ssimC2)) /
		((muA*muA + muB*muB + ssimC1) * (varA + varB + ssimC2))
}
