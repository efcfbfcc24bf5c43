// Package attack implements the active reconstruction attacks the paper
// defends against, behind a common [Attack] interface and a named-constructor
// registry ([New], [Register]; mirroring the aggregator/partitioner/sampler
// dispatch used across the repo). The registered families are:
//
//   - "rtf" — RTF ("Robbing the Fed", Fowl et al., ICLR 2022; paper
//     reference [18], arXiv:2110.13057): an imprint layer whose neurons bin a
//     scalar measurement of the input (mean brightness); adjacent-bin
//     gradient differences invert to single images.
//   - "cah" — CAH ("Curious Abandon Honesty", Boenisch et al., EuroS&P 2023;
//     paper reference [17], arXiv:2112.02918): trap weights projecting onto
//     random directions, biases placed at empirical quantiles of the probe
//     projections so each neuron fires for ≈ one sample per batch; each
//     singly-activated neuron inverts to its sample via Eq. 6.
//   - "qbi" — QBI ("Quantile-based Bias Initialization", Nowak et al.,
//     arXiv:2406.18745): the CAH trap geometry with analytically placed
//     biases. Instead of projecting the whole probe set through every
//     neuron, QBI estimates each neuron's pre-activation distribution from
//     per-pixel probe moments and sets the bias at the Gaussian
//     (1 − 1/B)-quantile, so calibration is O(probe·d) instead of
//     O(neurons·probe·d) while target neurons still fire for ~1/B of
//     samples.
//   - "loki" — LOKI-style ("LOKI: Large-scale Data Reconstruction Attack
//     ... through Model Manipulation", Zhao et al., arXiv:2303.12233):
//     scaled identity/kernel manipulation aimed at large sampled
//     populations. Neurons are split into groups; each group measures a
//     different random pixel kernel (scaled by an amplification factor γ
//     that inflates the malicious layer's share of the gradient), with
//     within-group quantile bins inverted by adjacent differencing.
//     Measurement diversity across groups separates samples — and sampled
//     clients — that collide under any single scalar measurement.
//
// [LinearInversion] (the single-layer logistic-model inversion of §IV-D) is
// deliberately not registered: it attacks a different victim architecture
// (no planted layer) and is driven directly by the Figure 13 experiment.
//
// All families follow the paper's attack principle (§III-A): for a
// fully-connected layer z = Wx + b, per-neuron gradients are
// ∂L/∂W_i = Σ_j g_ij·x_j and ∂L/∂b_i = Σ_j g_ij, so whenever one sample's
// contribution can be isolated, x̂ = (∂L/∂b_i)⁻¹·∂L/∂W_i is a verbatim copy.
//
// The four registered families therefore share one core, [Imprint]: the
// planted layer (w, b) and its decoder, with Layer, BuildVictim,
// Reconstruct, Run and Slice written once. Their constructors ([NewRTF],
// [NewCAH], [NewQBI], [NewLOKI]) only calibrate w and b and pick one of two
// decoders: adjacent-bin differencing over groups of quantile bins (RTF is
// one group, LOKI many), or Eq. 6 on every neuron followed by
// de-duplication (CAH, QBI).
package attack
