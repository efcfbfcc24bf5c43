package nn

import (
	"fmt"
	"math"

	"github.com/oasisfl/oasis/internal/tensor"
)

// SoftmaxCrossEntropy is the standard multi-class classification loss
// averaged over the batch, and the one loss in this repository: the FL
// clients in the paper minimize it, and the dishonest server inverts its
// gradients. It returns mean cross-entropy and its gradient with respect
// to the logits, (softmax − onehot)/B.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("nn: cross-entropy expects [B,K] logits, got %v", logits.Shape()))
	}
	b, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("nn: cross-entropy got %d labels for batch %d", len(labels), b))
	}
	grad := tensor.New(b, k)
	loss := 0.0
	for i := 0; i < b; i++ {
		row := logits.RowView(i)
		g := grad.RowView(i)
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			g[j] = e
			sum += e
		}
		for j := range g {
			g[j] /= sum
		}
		loss += -math.Log(math.Max(g[y], 1e-300))
		g[y] -= 1
	}
	inv := 1.0 / float64(b)
	grad.ScaleInPlace(inv)
	return loss * inv, grad
}

// Softmax returns row-wise softmax probabilities of a [B,K] tensor.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	b, k := logits.Dim(0), logits.Dim(1)
	out := tensor.New(b, k)
	for i := 0; i < b; i++ {
		row := logits.RowView(i)
		o := out.RowView(i)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			o[j] = e
			sum += e
		}
		for j := range o {
			o[j] /= sum
		}
	}
	return out
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	b := logits.Dim(0)
	correct := 0
	for i := 0; i < b; i++ {
		row := logits.RowView(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(b)
}
