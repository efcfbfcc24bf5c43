package fl

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/opt"
	"github.com/oasisfl/oasis/internal/tensor"
)

// TrainCentralized trains net on trainSet for the given epochs with Adam (lr
// 1e-3, weight decay 1e-4, the paper's Table I optimizer). Each epoch walks
// a fresh rng permutation in full batches, dropping the remainder. def, when
// non-nil, rewrites every batch before the forward pass (OASIS) and
// transforms the gradients in place before each step (DPSGD). It returns the
// last epoch's mean training loss.
func TrainCentralized(net *nn.Sequential, trainSet data.Dataset, def Defense, epochs, batchSize int, rng *rand.Rand) (float64, error) {
	optimizer := opt.NewAdam(1e-3, 1e-4)
	loss := nn.SoftmaxCrossEntropy{}
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
			logits := net.Forward(x, true)
			l, g := loss.Compute(logits, batch.Labels)
			net.Backward(g)
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
		total += batch.Size()
	}
	if total == 0 {
		return 0, fmt.Errorf("fl: empty evaluation set %s", ds.Name())
	}
	return correct / float64(total), nil
}
