// Package data defines the dataset abstraction and batches used by the FL
// clients, plus deterministic synthetic stand-ins for the paper's ImageNet
// (10-class subset) and CIFAR100 evaluation sets.
//
// Real ImageNet/CIFAR100 are unavailable offline; per the substitution rule
// the generators below produce procedural images with (a) class-dependent
// structure so classification is learnable (Table I), and (b) per-sample
// continuous variation in mean brightness, which is the scalar statistic the
// RTF attack bins on — natural images have exactly this property.
package data

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Dataset is an indexable, deterministic collection of labeled images.
type Dataset interface {
	// Name is a short identifier used in experiment tables.
	Name() string
	// NumClasses returns the label cardinality.
	NumClasses() int
	// Shape returns the image dimensions (channels, height, width).
	Shape() (c, h, w int)
	// Len returns the number of samples.
	Len() int
	// Sample returns the image and label at index i. The image may be
	// shared with other callers and with later calls for the same index
	// (see Synth.Cached): callers must not mutate it, and Clone it first
	// when they need to write.
	Sample(i int) (*imaging.Image, int)
}

// Labeler is an optional Dataset refinement for corpora that can report a
// sample's label without rendering the sample. Label(i) must equal the label
// Sample(i) returns. Label-skew partitioners use it so that partitioning a
// procedural million-sample dataset does not generate every image.
type Labeler interface {
	Label(i int) int
}

// Batch is an ordered set of images with labels — the local training batch D
// of one FL client.
type Batch struct {
	Images []*imaging.Image
	Labels []int
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return len(b.Images) }

// Append adds a sample to the batch.
func (b *Batch) Append(im *imaging.Image, label int) {
	b.Images = append(b.Images, im)
	b.Labels = append(b.Labels, label)
}

// Flatten returns the batch as a [B, C*H*W] matrix — the input format of the
// fully-connected malicious layer. The matrix comes from the tensor arena:
// every element is written, and the caller may Release it once the model
// has run.
func (b *Batch) Flatten() *tensor.Tensor {
	if len(b.Images) == 0 {
		panic("data: Flatten of empty batch")
	}
	d := len(b.Images[0].Pix)
	out := tensor.NewPooledRaw(len(b.Images), d)
	for i, im := range b.Images {
		b.checkPix(i, d)
		out.SetRow(i, im.Pix)
	}
	return out
}

// Tensor4D returns the batch as a [B, C, H, W] tensor for convolutional
// models, drawn from the tensor arena like Flatten's matrix.
func (b *Batch) Tensor4D() *tensor.Tensor {
	if len(b.Images) == 0 {
		panic("data: Tensor4D of empty batch")
	}
	c, h, w := b.Images[0].C, b.Images[0].H, b.Images[0].W
	d := c * h * w
	out := tensor.NewPooledRaw(len(b.Images), c, h, w)
	od := out.Data()
	for i, im := range b.Images {
		b.checkPix(i, d)
		copy(od[i*d:(i+1)*d], im.Pix)
	}
	return out
}

// checkPix panics unless batch image i has d pixels: a short image would
// leave stale arena data in its row.
func (b *Batch) checkPix(i, d int) {
	if n := len(b.Images[i].Pix); n != d {
		panic(fmt.Sprintf("data: batch image %d has %d pixels, want %d", i, n, d))
	}
}

// TakeBatch builds a batch from the dataset samples at the given indices.
func TakeBatch(ds Dataset, indices []int) (*Batch, error) {
	b := &Batch{}
	for _, i := range indices {
		if i < 0 || i >= ds.Len() {
			return nil, fmt.Errorf("data: index %d out of range for %s (len %d)", i, ds.Name(), ds.Len())
		}
		im, y := ds.Sample(i)
		b.Append(im, y)
	}
	return b, nil
}

// RandomBatch draws size samples without replacement using rng.
func RandomBatch(ds Dataset, rng *rand.Rand, size int) (*Batch, error) {
	if size > ds.Len() {
		return nil, fmt.Errorf("data: batch size %d exceeds dataset %s length %d", size, ds.Name(), ds.Len())
	}
	perm := rng.Perm(ds.Len())
	return TakeBatch(ds, perm[:size])
}

// UniqueLabelBatch draws one sample per distinct label for the first size
// labels — the restrictive setting of the paper's linear-model attack (§IV-D:
// "the images in each training batch are assumed to have unique labels").
func UniqueLabelBatch(ds Dataset, rng *rand.Rand, size int) (*Batch, error) {
	if size > ds.NumClasses() {
		return nil, fmt.Errorf("data: unique-label batch of %d exceeds %d classes", size, ds.NumClasses())
	}
	want := make(map[int]bool, size)
	for _, c := range rng.Perm(ds.NumClasses())[:size] {
		want[c] = true
	}
	b := &Batch{}
	for _, i := range rng.Perm(ds.Len()) {
		im, y := ds.Sample(i)
		if want[y] {
			delete(want, y)
			b.Append(im, y)
			if b.Size() == size {
				return b, nil
			}
		}
	}
	return nil, fmt.Errorf("data: dataset %s lacks samples for %d distinct labels", ds.Name(), size)
}

// Split partitions indices [0, n) into parts of the given sizes drawn from a
// seeded permutation; used for train/test splits and for sharding data
// across FL clients.
func Split(n int, rng *rand.Rand, sizes ...int) ([][]int, error) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total > n {
		return nil, fmt.Errorf("data: split sizes sum to %d > %d", total, n)
	}
	perm := rng.Perm(n)
	out := make([][]int, len(sizes))
	off := 0
	for i, s := range sizes {
		out[i] = append([]int(nil), perm[off:off+s]...)
		off += s
	}
	return out, nil
}

// Subset exposes a fixed index subset of a dataset as a Dataset.
type Subset struct {
	Base    Dataset
	Indices []int
	Label   string
}

var _ Dataset = (*Subset)(nil)

// NewSubset wraps base restricted to indices.
func NewSubset(base Dataset, indices []int, label string) *Subset {
	return &Subset{Base: base, Indices: indices, Label: label}
}

// Name returns the subset label.
func (s *Subset) Name() string { return s.Label }

// NumClasses returns the base dataset's class count.
func (s *Subset) NumClasses() int { return s.Base.NumClasses() }

// Shape returns the base dataset's image shape.
func (s *Subset) Shape() (int, int, int) { return s.Base.Shape() }

// Len returns the subset size.
func (s *Subset) Len() int { return len(s.Indices) }

// Sample resolves through the index mapping.
func (s *Subset) Sample(i int) (*imaging.Image, int) { return s.Base.Sample(s.Indices[i]) }
