package data

import (
	"math"
	rand "math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/oasisfl/oasis/internal/imaging"
)

// Synth is a deterministic procedural image dataset. Sample(i) derives its
// own PCG stream from (seed, i), so the dataset behaves like a fixed on-disk
// corpus: the same index always yields the same image, with no ordering
// effects. A Synth made by Cached also keeps each image it renders and hands
// the same image to every later Sample of that index; either way the pixels
// are the same.
//
// Class structure: each class owns a palette and a pattern family (stripes,
// checkers, rings, radial gradient, blobs) with class-specific frequency and
// orientation. Per-sample jitter moves phase/position/scale, adds pixel
// noise, and shifts global brightness — the brightness spread is what gives
// the RTF attack's mean-brightness bins their resolving power, mirroring
// natural image statistics.
type Synth struct {
	name    string
	classes int
	c, h, w int
	n       int
	seed    uint64
	noise   float64
	// cache holds the rendered image of each index, nil until first
	// sampled; the slice itself is nil on a Synth that does not cache.
	cache []atomic.Pointer[imaging.Image]
	// styles is shared with every copy Cached makes.
	styles *classStyles
}

// classStyle is the class-invariant look of a label: its palette, pattern
// family, frequency and orientation, derived only from (seed, label).
type classStyle struct {
	palette   [3][3]float64
	family    int
	freq      float64
	baseAngle float64
}

// classStyles holds the style of every label a sample index in [0, n) can
// have, built on first use.
type classStyles struct {
	once sync.Once
	all  []classStyle
}

// newClassStyle derives label's style from its own keyed stream.
func newClassStyle(seed uint64, label int) classStyle {
	crng := rand.New(rand.NewPCG(seed^0xabcdef, uint64(label)+1))
	var st classStyle
	for p := range st.palette {
		hue := math.Mod(float64(label)*0.61803398875+float64(p)*0.31, 1.0)
		st.palette[p] = hueToRGB(hue, 0.55+0.3*crng.Float64(), 0.35+0.3*crng.Float64())
	}
	st.family = label % 5
	st.freq = 1.5 + float64((label/5)%4)
	st.baseAngle = crng.Float64() * math.Pi
	return st
}

// style returns label's style, from the shared table when label is one a
// sample index in [0, n) has.
func (s *Synth) style(label int) classStyle {
	s.styles.once.Do(func() {
		s.styles.all = make([]classStyle, min(s.classes, s.n))
		for l := range s.styles.all {
			s.styles.all[l] = newClassStyle(s.seed, l)
		}
	})
	if uint(label) < uint(len(s.styles.all)) {
		return s.styles.all[label]
	}
	return newClassStyle(s.seed, label)
}

var _ Dataset = (*Synth)(nil)

// NewSynthImageNet returns the stand-in for the paper's 10-class ImageNet
// subset (imagenette classes) at 64×64×3.
func NewSynthImageNet(seed uint64) *Synth {
	return &Synth{name: "synth-imagenet", classes: 10, c: 3, h: 64, w: 64, n: 4096, seed: seed, noise: 0.04, styles: new(classStyles)}
}

// NewSynthCIFAR100 returns the stand-in for CIFAR100 at 32×32×3 with 100
// classes.
func NewSynthCIFAR100(seed uint64) *Synth {
	return &Synth{name: "synth-cifar100", classes: 100, c: 3, h: 32, w: 32, n: 8192, seed: seed, noise: 0.05, styles: new(classStyles)}
}

// NewSynthCustom builds a synthetic dataset with explicit geometry; used by
// tests and the example scenarios (e.g. 1-channel "medical scans").
func NewSynthCustom(name string, classes, c, h, w, n int, seed uint64) *Synth {
	return &Synth{name: name, classes: classes, c: c, h: h, w: w, n: n, seed: seed, noise: 0.04, styles: new(classStyles)}
}

// Name returns the dataset identifier.
func (s *Synth) Name() string { return s.name }

// NumClasses returns the label cardinality.
func (s *Synth) NumClasses() int { return s.classes }

// Shape returns (channels, height, width).
func (s *Synth) Shape() (int, int, int) { return s.c, s.h, s.w }

// Len returns the virtual dataset size.
func (s *Synth) Len() int { return s.n }

// Label returns sample i's class without rendering the image; it matches the
// label Sample(i) produces.
func (s *Synth) Label(i int) int { return i % s.classes }

// Cached returns a copy of s that renders each index once and then returns
// that same image from every Sample of the index. It is safe for concurrent
// use: goroutines that race on an unrendered index may each render it, and
// all of them get the image stored first. It holds n image pointers up
// front and every image it has rendered until it is collected, so it suits
// only datasets small enough to keep whole.
func (s *Synth) Cached() *Synth {
	c := *s
	c.cache = make([]atomic.Pointer[imaging.Image], s.n)
	return &c
}

// Sample deterministically generates the image and label for index i. On a
// Cached Synth the image is shared with every other caller of the index.
func (s *Synth) Sample(i int) (*imaging.Image, int) {
	label := i % s.classes
	if uint(i) >= uint(len(s.cache)) {
		return s.sample(i, label), label
	}
	slot := &s.cache[i]
	if im := slot.Load(); im != nil {
		return im, label
	}
	if im := s.sample(i, label); slot.CompareAndSwap(nil, im) {
		return im, label
	}
	return slot.Load(), label
}

// sample renders index i from its own keyed stream.
func (s *Synth) sample(i, label int) *imaging.Image {
	return s.render(label, rand.New(rand.NewPCG(s.seed, uint64(i)*0x9e3779b97f4a7c15+1)))
}

// render paints one sample of the given class.
func (s *Synth) render(label int, rng *rand.Rand) *imaging.Image {
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

func blob(x, y, cx, cy, sigma float64) float64 {
	d2 := (x-cx)*(x-cx) + (y-cy)*(y-cy)
	return math.Exp(-d2 / (2 * sigma * sigma))
}

// hueToRGB converts HSL-ish coordinates to RGB in [0,1].
func hueToRGB(h, s, l float64) [3]float64 {
	c := (1 - math.Abs(2*l-1)) * s
	hp := h * 6
	x := c * (1 - math.Abs(math.Mod(hp, 2)-1))
	var r, g, b float64
	switch {
	case hp < 1:
		r, g, b = c, x, 0
	case hp < 2:
		r, g, b = x, c, 0
	case hp < 3:
		r, g, b = 0, c, x
	case hp < 4:
		r, g, b = 0, x, c
	case hp < 5:
		r, g, b = x, 0, c
	default:
		r, g, b = c, 0, x
	}
	m := l - c/2
	return [3]float64{clamp01(r + m), clamp01(g + m), clamp01(b + m)}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
