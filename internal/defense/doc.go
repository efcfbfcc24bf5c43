// Package defense is the composable client-side defense layer: every
// countermeasure the paper's §V comparison evaluates — and any family a
// library user registers — sits behind one two-stage contract and a named
// constructor registry that mirrors internal/attack.
//
// # The two-stage model
//
// A client-side defense can act in exactly two places of a training round:
//
//   - batch stage: rewrite the local batch D before gradients are computed.
//     OASIS expands D to D′ = D ∪ ⋃ X′_t (Eq. 7, internal/core); ATS
//     replaces each image with one transformed copy (Gao et al. [41]).
//   - gradient stage: post-process the gradients before upload. DPSGD clips
//     the joint norm and adds Gaussian noise (Abadi et al.); pruning zeroes
//     all but the largest-magnitude fraction (Zhu et al. [38], Sun et al.
//     [37]).
//
// The Defense interface carries both stages (ApplyBatch, ApplyGrads); a
// defense implements the stage it acts in and leaves the other the identity.
// It is fl.Defense, the type of fl.LocalClient's one Defense field, so every
// defense and pipeline plugs into a client as is.
// That single contract is what lets defenses compose: a Pipeline chains any
// ordered mix of stages, applying every batch rewrite before training and
// every gradient transform after, which is what real deployments do (e.g.
// OASIS augmentation *plus* DP noise).
//
// # The registry
//
// Built-in kinds and their spec syntax:
//
//	oasis:<policy>        OASIS batch augmentation (MR, mR, SH, HFlip, VFlip, MR+SH)
//	dpsgd:<clip>,<sigma>  DP-SGD gradient clipping + Gaussian noise
//	prune:<keep>          gradient sparsification keeping the top fraction
//	ats:<policy>          transformation replacement (Gao et al. [41])
//
// Resolve one with New("prune:0.3", cfg), or an ordered chain with
// NewPipeline("oasis:MR|dpsgd:1,0.1", cfg). Register adds a custom family;
// it immediately becomes a valid scenario defense kind (internal/sim), sweep
// grid column (internal/experiments), and pipeline segment — validation
// errors list Names() dynamically, so they never go stale.
//
// Stochastic stages (DPSGD noise, ATS transform choice) draw from
// Config.Rng. Give each client its own stream: stateful defenses must not be
// shared across concurrently-trained clients (see fl.Client's concurrency
// contract). NewPipeline splits an independent child stream per stage so
// appending a stage never perturbs the draws of earlier ones — this is what
// keeps scenario reports bit-identical across worker counts.
//
// The non-OASIS baselines matter to the paper because they fail in ways
// OASIS does not: noise strong enough to hide content also destroys model
// utility; data remains recognizable even with most gradients pruned [17];
// and a neuron activated only by an ATS-replaced image still reconstructs it
// verbatim (Figure 14).
package defense
