package imaging

import (
	"image/png"
	"os"
	"path/filepath"
	"testing"
)

func TestWritePNGRoundTrip(t *testing.T) {
	im := randImage(50, 3, 8, 8)
	path := filepath.Join(t.TempDir(), "sub", "test.png")
	if err := im.WritePNG(path); err != nil {
		t.Fatalf("WritePNG: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoded, err := png.Decode(f)
	if err != nil {
		t.Fatalf("png.Decode: %v", err)
	}
	if b := decoded.Bounds(); b.Dx() != 8 || b.Dy() != 8 {
		t.Errorf("decoded bounds %v", b)
	}
}

func TestWritePNGGrayscale(t *testing.T) {
	im := randImage(51, 1, 4, 4)
	path := filepath.Join(t.TempDir(), "gray.png")
	if err := im.WritePNG(path); err != nil {
		t.Fatalf("WritePNG 1-channel: %v", err)
	}
}

func TestToNRGBARejectsOddChannels(t *testing.T) {
	if _, err := NewImage(2, 4, 4).ToNRGBA(); err == nil {
		t.Error("2-channel render succeeded")
	}
}

func TestToNRGBAQuantization(t *testing.T) {
	im := NewImage(1, 1, 3)
	im.Pix[0], im.Pix[1], im.Pix[2] = -1, 0.5, 2 // clamps to 0, 127/128, 255
	raster, err := im.ToNRGBA()
	if err != nil {
		t.Fatal(err)
	}
	if c := raster.NRGBAAt(0, 0); c.R != 0 {
		t.Errorf("negative pixel quantized to %d", c.R)
	}
	if c := raster.NRGBAAt(2, 0); c.R != 255 {
		t.Errorf("overflow pixel quantized to %d", c.R)
	}
	if c := raster.NRGBAAt(1, 0); c.R != 128 {
		t.Errorf("0.5 quantized to %d, want 128", c.R)
	}
}

func TestMontageGeometry(t *testing.T) {
	imgs := []*Image{randImage(1, 3, 4, 4), randImage(2, 3, 4, 4), randImage(3, 3, 4, 4)}
	m, err := Montage(imgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 2 columns × 2 rows of 4px tiles with 2px gutters: 2*4+3*2 = 14 wide,
	// same tall.
	if m.W != 14 || m.H != 14 {
		t.Errorf("montage dims %dx%d, want 14x14", m.H, m.W)
	}
	// First tile's top-left pixel lands at (2,2).
	if m.At(0, 2, 2) != clamp01(imgs[0].At(0, 0, 0)) {
		t.Error("first tile misplaced")
	}
}

func TestMontageErrors(t *testing.T) {
	if _, err := Montage(nil, 2); err == nil {
		t.Error("empty montage succeeded")
	}
	if _, err := Montage([]*Image{NewImage(1, 2, 2), NewImage(1, 3, 3)}, 2); err == nil {
		t.Error("mixed-dimension montage succeeded")
	}
}

func TestMontageDefaultColumns(t *testing.T) {
	imgs := []*Image{randImage(4, 1, 2, 2), randImage(5, 1, 2, 2)}
	m, err := Montage(imgs, 0) // cols <= 0 means one row
	if err != nil {
		t.Fatal(err)
	}
	if m.H != 2+2*2 { // one row: 2px tile + 2 gutters
		t.Errorf("montage height %d, want 6", m.H)
	}
}
