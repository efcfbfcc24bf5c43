package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	rand "math/rand/v2"
	"testing"

	"github.com/oasisfl/oasis/internal/imaging"
)

// TestSynthPixelDigest pins the exact pixels Synth renders: a SHA-256 over
// the Float64bits of every pixel of the first 64 indices of each geometry.
// The goldens pin pixels only through training; this pins them directly,
// so a renderer change that moves any pixel by one ulp fails here first.
func TestSynthPixelDigest(t *testing.T) {
	cases := []struct {
		ds   *Synth
		want string
	}{
		{NewSynthImageNet(1), "c9bb733e3de800cfa21de7f455139e1e4a1a197f26f6da51ed593821a820e604"},
		{NewSynthCIFAR100(1), "e3449af3bec35f3c02944be3a7353c5d2a42b1e827a35ff754c89f081da24337"},
		{NewSynthCustom("cross-device", 10, 1, 8, 8, 1000, 7), "2d731956ef3189a1a5f635dda604e7427e6bd704b2da2029c684c5a7ac85c7b0"},
		{NewSynthCustom("paper-attack", 10, 3, 32, 32, 1000, 7), "5b96634efa6e89e64b5091076ba7cf1aaf9b7abc637355e0c6fd62b9a370eb65"},
		{NewSynthCustom("odd", 6, 4, 9, 17, 100, 3), "a400926aabf0e8134523baa2c523c570e5919cb1b5d02867bf9f17f98423cdfc"},
		{NewSynthCustom("tiny", 3, 2, 2, 2, 64, 5), "8a780da6c56a3843a9e31f05a219b2c700a62f6cb8313c13e1de3cb3abdbef36"},
	}
	for _, tc := range cases {
		c, h, w := tc.ds.Shape()
		if got := synthPixelDigest(tc.ds, 64); got != tc.want {
			t.Errorf("%s %dx%dx%d: pixel digest %s, want %s", tc.ds.Name(), c, h, w, got, tc.want)
		}
	}
}

// synthPixelDigest hashes the pixel bits of ds's first n samples.
func synthPixelDigest(ds *Synth, n int) string {
	h := sha256.New()
	var buf [8]byte
	for i := range n {
		im, _ := ds.Sample(i)
		for _, v := range im.Pix {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// renderRef is the renderer as it was before the background wash was
// tabulated, kept verbatim: two Sin calls per pixel and a Set per channel.
// FuzzSynthRender requires render to match it bit for bit.
func (s *Synth) renderRef(label int, rng *rand.Rand) *imaging.Image {
	im := imaging.NewImage(s.c, s.h, s.w)
	st := s.style(label)
	palette, family, freq, baseAngle := st.palette, st.family, st.freq, st.baseAngle

	// Per-sample jitter.
	phase := rng.Float64() * 2 * math.Pi
	angle := baseAngle + (rng.Float64()-0.5)*0.6
	cx := 0.3 + 0.4*rng.Float64()
	cy := 0.3 + 0.4*rng.Float64()
	scale := 0.8 + 0.4*rng.Float64()
	brightness := (rng.Float64() - 0.5) * 0.5 // wide mean-brightness spread
	cosA, sinA := math.Cos(angle), math.Sin(angle)

	for y := 0; y < s.h; y++ {
		fy := float64(y) / float64(s.h-1)
		for x := 0; x < s.w; x++ {
			fx := float64(x) / float64(s.w-1)
			// Rotate coordinates for oriented patterns.
			u := (fx-0.5)*cosA - (fy-0.5)*sinA
			v := (fx-0.5)*sinA + (fy-0.5)*cosA
			var t float64 // pattern coordinate in [0,1]
			switch family {
			case 0: // stripes
				t = 0.5 + 0.5*math.Sin(2*math.Pi*freq*u*scale+phase)
			case 1: // checkers
				a := math.Sin(2*math.Pi*freq*u*scale + phase)
				b := math.Sin(2 * math.Pi * freq * v * scale)
				t = 0.5 + 0.5*a*b
			case 2: // rings
				r := math.Hypot(fx-cx, fy-cy)
				t = 0.5 + 0.5*math.Sin(2*math.Pi*freq*2*r*scale+phase)
			case 3: // radial gradient
				r := math.Hypot(fx-cx, fy-cy) * scale
				t = math.Max(0, 1-1.6*r)
			default: // soft blobs
				t = 0.5*blob(fx, fy, cx, cy, 0.18*scale) +
					0.5*blob(fx, fy, 1-cx, 1-cy, 0.22*scale)
			}
			// Two-color mix plus a low-frequency background wash.
			bg := 0.15 * math.Sin(2*math.Pi*(fx+fy)+phase)
			for ch := 0; ch < s.c; ch++ {
				c0 := palette[0][ch%3]
				c1 := palette[1][ch%3]
				val := c0*(1-t) + c1*t + bg*palette[2][ch%3]
				val += brightness + rng.NormFloat64()*s.noise
				im.Set(ch, y, x, clamp01(val))
			}
		}
	}
	return im
}

// FuzzSynthRender: for any geometry with channels in [1, 4] and sides in
// [2, 40], any class count, seed and index, render paints the same pixel
// bits as renderRef from the same stream, and leaves the stream at the same
// state. Run beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzSynthRender -fuzztime 10s ./internal/data
func FuzzSynthRender(f *testing.F) {
	for _, g := range [][3]uint8{{1, 8, 8}, {3, 32, 32}, {4, 9, 17}, {2, 2, 2}, {3, 40, 40}, {1, 10, 17}, {2, 17, 2}} {
		for seed := range uint64(3) {
			f.Add(g[0], g[1], g[2], uint16(10), seed, uint32(seed*37))
		}
	}
	f.Add(uint8(1), uint8(8), uint8(8), uint16(500), uint64(9), uint32(1<<31))
	f.Fuzz(func(t *testing.T, cRaw, hRaw, wRaw uint8, classesRaw uint16, seed uint64, index uint32) {
		c, h, w := 1+int(cRaw%4), 2+int(hRaw%39), 2+int(wRaw%39)
		s := NewSynthCustom("fuzz", 1+int(classesRaw), c, h, w, 1000, seed)
		i := int(index)
		label := s.Label(i)
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		refRng := rand.New(rand.NewPCG(seed, uint64(i)))
		got, want := s.render(label, rng), s.renderRef(label, refRng)
		for p := range want.Pix {
			if math.Float64bits(got.Pix[p]) != math.Float64bits(want.Pix[p]) {
				t.Fatalf("%dx%dx%d seed %d index %d: pixel %d is %v, reference %v", c, h, w, seed, i, p, got.Pix[p], want.Pix[p])
			}
		}
		if a, b := rng.Uint64(), refRng.Uint64(); a != b {
			t.Fatalf("%dx%dx%d seed %d index %d: render drew a different number of values than the reference", c, h, w, seed, i)
		}
	})
}

// TestSynthOnePixelSide: a side of one pixel has the coordinate 0, so its
// images are finite and in [0, 1] rather than 0/0 = NaN.
func TestSynthOnePixelSide(t *testing.T) {
	for _, g := range [][2]int{{1, 8}, {8, 1}, {1, 1}} {
		ds := NewSynthCustom("one-pixel-side", 4, 1, g[0], g[1], 80, 1)
		for i := range ds.Len() {
			im, _ := ds.Sample(i)
			for p, v := range im.Pix {
				if !(v >= 0 && v <= 1) {
					t.Fatalf("1x%dx%d index %d: pixel %d is %v, want a value in [0, 1]", g[0], g[1], i, p, v)
				}
			}
		}
	}
}

// BenchmarkSynthRender times one uncached image at cross-device's 1x8x8 and
// paper-attack's 3x32x32:
//
//	go test -run '^$' -bench SynthRender -cpu 1 ./internal/data
func BenchmarkSynthRender(b *testing.B) {
	for _, g := range [][3]int{{1, 8, 8}, {3, 32, 32}} {
		b.Run(fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2]), func(b *testing.B) {
			ds := NewSynthCustom("bench", 10, g[0], g[1], g[2], 1<<30, 1)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				ds.Sample(i)
			}
		})
	}
}
