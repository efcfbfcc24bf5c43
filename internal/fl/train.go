package fl

import (
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// TrainCentralized trains net on trainSet for the given epochs with Adam (lr
// 1e-3, weight decay 1e-4, the paper's Table I optimizer). Each epoch walks
// a fresh rng permutation in full batches, dropping the remainder. def, when
// non-nil, rewrites every batch before the forward pass (OASIS) and
// transforms the gradients in place before each step (DPSGD). It returns the
// last epoch's mean training loss.
func TrainCentralized(net *nn.Sequential, trainSet data.Dataset, def Defense, epochs, batchSize int, rng *rand.Rand) (float64, error) {
	optimizer := newAdam(1e-3, 1e-4)
	kind := inputKind(net)
	params := net.Params()
	lastLoss := 0.0
	n := trainSet.Len()
	for ep := 0; ep < epochs; ep++ {
		perm := rng.Perm(n)
		epochLoss, steps := 0.0, 0
		for off := 0; off+batchSize <= n; off += batchSize {
			batch, err := data.TakeBatch(trainSet, perm[off:off+batchSize])
			if err != nil {
				return 0, err
			}
			if def != nil {
				batch = def.ApplyBatch(batch)
			}
			x, err := batchInput(batch, kind)
			if err != nil {
				return 0, err
			}
			net.ZeroGrad()
			l := net.Backprop(x, batch.Labels)
			x.Release()
			if def != nil {
				grads := make([]*tensor.Tensor, 0, len(params))
				for _, p := range params {
					grads = append(grads, p.G)
				}
				def.ApplyGrads(grads)
			}
			optimizer.Step(params)
			epochLoss += l
			steps++
		}
		if steps > 0 {
			lastLoss = epochLoss / float64(steps)
		}
	}
	return lastLoss, nil
}

// adam is the Adam optimizer (Kingma & Ba) with decoupled weight decay,
// matching the paper's Table I training recipe (Adam, lr 1e-3, weight decay).
type adam struct {
	lr          float64
	beta1       float64
	beta2       float64
	eps         float64
	weightDecay float64

	t int
	m map[*nn.Param]*tensor.Tensor
	v map[*nn.Param]*tensor.Tensor
}

// newAdam constructs an Adam optimizer with the usual β defaults.
func newAdam(lr, weightDecay float64) *adam {
	return &adam{
		lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weightDecay: weightDecay,
		m: make(map[*nn.Param]*tensor.Tensor),
		v: make(map[*nn.Param]*tensor.Tensor),
	}
}

// Step applies one Adam update with bias correction.
func (a *adam) Step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.W.Shape()...)
			a.m[p] = m
			a.v[p] = tensor.New(p.W.Shape()...)
		}
		v := a.v[p]
		gd := p.G.Data()
		md, vd, wd := m.Data(), v.Data(), p.W.Data()
		for i, g := range gd {
			if a.weightDecay != 0 {
				g += a.weightDecay * wd[i]
			}
			md[i] = a.beta1*md[i] + (1-a.beta1)*g
			vd[i] = a.beta2*vd[i] + (1-a.beta2)*g*g
			mh := md[i] / c1
			vh := vd[i] / c2
			wd[i] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
		}
	}
}

// EvaluateAccuracy computes net's classification accuracy over the whole of
// ds in inference mode, batchSize samples at a time. An empty ds is an
// error.
func EvaluateAccuracy(net *nn.Sequential, ds data.Dataset, batchSize int) (float64, error) {
	kind := inputKind(net)
	correct, total := 0.0, 0
	for off := 0; off < ds.Len(); off += batchSize {
		end := min(off+batchSize, ds.Len())
		idx := make([]int, 0, end-off)
		for i := off; i < end; i++ {
			idx = append(idx, i)
		}
		batch, err := data.TakeBatch(ds, idx)
		if err != nil {
			return 0, err
		}
		x, err := batchInput(batch, kind)
		if err != nil {
			return 0, err
		}
		logits := net.Forward(x, false)
		correct += nn.Accuracy(logits, batch.Labels) * float64(batch.Size())
		if logits != x {
			logits.Release()
		}
		x.Release()
		total += batch.Size()
	}
	if total == 0 {
		return 0, fmt.Errorf("fl: empty evaluation set %s", ds.Name())
	}
	return correct / float64(total), nil
}
