package experiments

import (
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// Table1 reproduces the model-utility comparison: a residual classifier is
// trained under identical budgets with every OASIS transformation and
// without OASIS, and test accuracy is compared. The paper trains ResNet-18
// on ImageNet/CIFAR100 with Adam (lr 1e-3); this runner trains ResNet-lite
// on reduced-resolution synthetic variants with the same optimizer family —
// the comparison of interest (OASIS ≈ WO accuracy) is preserved because all
// rows share dataset, architecture and budget. See README, "Running the
// paper experiments".
func Table1(cfg Config) (*Result, error) {
	type setCfg struct {
		ds     data.Dataset
		train  int
		test   int
		epochs int
		batch  int
		width  int
	}
	var sets []setCfg
	var policies []string
	if cfg.Quick {
		sets = []setCfg{{
			ds:    data.NewSynthCustom("synth-imagenet-t1", 6, 3, 16, 16, 1024, cfg.Seed),
			train: 120, test: 48, epochs: 4, batch: 24, width: 4,
		}}
		policies = []string{"WO", "MR"}
	} else {
		sets = []setCfg{
			{
				ds:    data.NewSynthCustom("synth-imagenet-t1", 10, 3, 24, 24, 2048, cfg.Seed),
				train: 240, test: 120, epochs: 8, batch: 24, width: 6,
			},
			{
				ds:    data.NewSynthCustom("synth-cifar100-t1", 20, 3, 24, 24, 2048, cfg.Seed),
				train: 280, test: 140, epochs: 8, batch: 24, width: 6,
			},
		}
		policies = []string{"MR", "mR", "SH", "HFlip", "VFlip", "MR+SH", "WO"}
	}

	res := &Result{ID: "table1"}
	t := metrics.NewTable("Table I: test accuracy (%) when training with and without OASIS",
		"transformation", "dataset", "accuracy_%", "final_train_loss")
	for _, sc := range sets {
		rng := nn.RandSource(cfg.Seed^0x7ab1e1, hashLabel(sc.ds.Name()))
		splits, err := data.Split(sc.ds.Len(), rng, sc.train, sc.test)
		if err != nil {
			return nil, err
		}
		trainSet := data.NewSubset(sc.ds, splits[0], sc.ds.Name()+"-train")
		testSet := data.NewSubset(sc.ds, splits[1], sc.ds.Name()+"-test")
		for _, polName := range policies {
			// Identical weight initialization and batch order across
			// policies: rows differ only in the augmentation applied, which
			// is the comparison Table I makes.
			initRng := nn.RandSource(cfg.Seed^0x7ab1e1f, hashLabel(sc.ds.Name()))
			c, _, _ := sc.ds.Shape()
			net := nn.NewResNetLite(nn.ResNetLiteConfig{
				InChannels: c, NumClasses: sc.ds.NumClasses(), Width: sc.width,
			}, initRng)
			trRng := nn.RandSource(cfg.Seed^0x7ab1e2f, hashLabel(sc.ds.Name()))
			def, err := policyDefense(polName)
			if err != nil {
				return nil, err
			}
			// A nil *core.Defense ("WO") must stay a nil interface.
			var fd fl.Defense
			if def != nil {
				fd = def
			}
			loss, err := fl.TrainCentralized(net, trainSet, fd, sc.epochs, sc.batch, trRng)
			if err != nil {
				return nil, err
			}
			acc, err := fl.EvaluateAccuracy(net, testSet, sc.batch)
			if err != nil {
				return nil, err
			}
			t.AddRowf(polName, sc.ds.Name(), acc*100, loss)
			cfg.logf("table1 %s %s acc=%.1f%% loss=%.3f", sc.ds.Name(), polName, acc*100, loss)
		}
	}
	res.Tables = append(res.Tables, t)
	if err := res.saveCSV(cfg, "table1.csv", t); err != nil {
		return nil, err
	}
	return res, nil
}
