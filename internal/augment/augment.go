// Package augment defines the image-augmentation policies OASIS uses to
// build the transform set X′_t for every training image x_t (paper §III-B
// and §IV-A "OASIS Implementation"):
//
//   - Major rotation: 90°, 180°, 270° (exact permutations)
//   - Minor rotation: 30°, 45°, 60°
//   - Shearing: factors 0.55, 1.0, 0.9
//   - Horizontal / vertical flip
//   - Compositions (e.g. major rotation + shearing, the strongest defense
//     against the CAH attack in Figure 6)
//
// A Policy is deterministic given its parameters; OASIS optionally
// re-samples minor-rotation angles and shear factors per round so the server
// cannot learn the exact transformation parameters (paper §IV-C notes the
// attacker "does not know the specific parameters of the transformations").
package augment

import (
	"fmt"
	"slices"

	"github.com/oasisfl/oasis/internal/imaging"
)

// Policy produces the augmented counterparts X′_t of one image.
type Policy interface {
	// Expand returns the transformed copies of im (not including im
	// itself). Implementations must not mutate im.
	Expand(im *imaging.Image) []*imaging.Image
	// Name is the short label used in experiment tables (MR, mR, SH, …).
	Name() string
}

// MajorRotation rotates by the three major angles 90°, 180°, 270° (Eq. 2
// with θ ∈ {90°, 180°, 270°}).
type MajorRotation struct{}

var _ Policy = MajorRotation{}

// Expand returns the three major rotations of im.
func (MajorRotation) Expand(im *imaging.Image) []*imaging.Image {
	return []*imaging.Image{imaging.Rotate90(im), imaging.Rotate180(im), imaging.Rotate270(im)}
}

// Name returns "MR".
func (MajorRotation) Name() string { return "MR" }

// MinorRotation rotates by three angles below 90°; the paper uses 30°, 45°
// and 60°.
type MinorRotation struct {
	// Angles in degrees; zero value means the paper's {30, 45, 60}.
	Angles []float64
}

var _ Policy = MinorRotation{}

// Expand returns the minor rotations of im.
func (m MinorRotation) Expand(im *imaging.Image) []*imaging.Image {
	angles := m.Angles
	if len(angles) == 0 {
		angles = []float64{30, 45, 60}
	}
	out := make([]*imaging.Image, 0, len(angles))
	for _, deg := range angles {
		out = append(out, imaging.Rotate(im, deg*degToRad))
	}
	return out
}

// Name returns "mR".
func (MinorRotation) Name() string { return "mR" }

const degToRad = 0.017453292519943295

// Shearing shears by three factors; the paper uses 0.55, 1.0 and 0.9.
type Shearing struct {
	// Factors controlling shear intensity; zero value means the paper's
	// {0.55, 1.0, 0.9}.
	Factors []float64
}

var _ Policy = Shearing{}

// Expand returns the sheared copies of im.
func (s Shearing) Expand(im *imaging.Image) []*imaging.Image {
	factors := s.Factors
	if len(factors) == 0 {
		factors = []float64{0.55, 1.0, 0.9}
	}
	out := make([]*imaging.Image, 0, len(factors))
	for _, mu := range factors {
		out = append(out, imaging.Shear(im, mu))
	}
	return out
}

// Name returns "SH".
func (Shearing) Name() string { return "SH" }

// HFlip mirrors across the vertical axis (Eq. 3).
type HFlip struct{}

var _ Policy = HFlip{}

// Expand returns the horizontal mirror of im.
func (HFlip) Expand(im *imaging.Image) []*imaging.Image {
	return []*imaging.Image{imaging.FlipH(im)}
}

// Name returns "HFlip".
func (HFlip) Name() string { return "HFlip" }

// VFlip mirrors across the horizontal axis (Eq. 4).
type VFlip struct{}

var _ Policy = VFlip{}

// Expand returns the vertical mirror of im.
func (VFlip) Expand(im *imaging.Image) []*imaging.Image {
	return []*imaging.Image{imaging.FlipV(im)}
}

// Name returns "VFlip".
func (VFlip) Name() string { return "VFlip" }

// Compose unions the expansions of several policies; X′_t built "by more
// than one transformation" is the paper's fix for the CAH attack at small
// batch sizes (Figure 6: MR+SH).
type Compose struct {
	Policies []Policy
}

var _ Policy = Compose{}

// NewCompose builds a composition of the given policies.
func NewCompose(policies ...Policy) Compose { return Compose{Policies: policies} }

// Expand concatenates the expansions of all member policies.
func (c Compose) Expand(im *imaging.Image) []*imaging.Image {
	var out []*imaging.Image
	for _, p := range c.Policies {
		out = append(out, p.Expand(im)...)
	}
	return out
}

// Name joins the member names with "+" (e.g. "MR+SH").
func (c Compose) Name() string {
	name := ""
	for i, p := range c.Policies {
		if i > 0 {
			name += "+"
		}
		name += p.Name()
	}
	return name
}

// NeedsSquare reports whether p rotates by a right angle, which turns an
// H×W image into a W×H one and so is defined only on square images.
func NeedsSquare(p Policy) bool {
	switch p := p.(type) {
	case MajorRotation:
		return true
	case Compose:
		return slices.ContainsFunc(p.Policies, NeedsSquare)
	}
	return false
}

// ByName returns the standard policy for a short label used across the
// experiment tables: WO (nil), MR, mR, SH, HFlip, VFlip, MR+SH.
func ByName(label string) (Policy, error) {
	switch label {
	case "WO":
		return nil, nil
	case "MR":
		return MajorRotation{}, nil
	case "mR":
		return MinorRotation{}, nil
	case "SH":
		return Shearing{}, nil
	case "HFlip":
		return HFlip{}, nil
	case "VFlip":
		return VFlip{}, nil
	case "MR+SH":
		return NewCompose(MajorRotation{}, Shearing{}), nil
	default:
		return nil, fmt.Errorf("augment: unknown policy %q", label)
	}
}
