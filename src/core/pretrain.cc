#include "core/pretrain.h"

#include "models/mlp.h"
#include "tensor/optim.h"
#include "util/timer.h"

// Never contract a multiply and an add into an FMA in this file, whatever
// the build flags say: RowSelfDots must round as RowCosine
// (src/tensor/matrix.cc) does, and the pre-classifier's hidden states feed
// every subgraph. CMakeLists.txt passes -ffp-contract=off, but a build that
// compiles src/ with its own flags may not.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace bsg {

PretrainResult PretrainClassifier(const HeteroGraph& g,
                                  const PretrainConfig& cfg) {
  WallTimer timer;
  ModelConfig mc;
  mc.hidden = cfg.hidden;
  mc.dropout = cfg.dropout;
  MlpModel mlp(g, mc, cfg.seed, 0, -1, "pre-classifier");

  // Paper: the coarse classifier is fit on training + validation sets.
  std::vector<int> fit_nodes = g.train_idx;
  fit_nodes.insert(fit_nodes.end(), g.val_idx.begin(), g.val_idx.end());
  BSG_CHECK(!fit_nodes.empty(), "pretraining needs labelled nodes");

  Adam optimizer(mlp.Parameters(), cfg.lr, cfg.weight_decay);
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    Tensor logits = mlp.Forward(/*training=*/true);
    Tensor loss = ops::SoftmaxCrossEntropy(logits, g.labels, fit_nodes);
    Backward(loss);
    optimizer.Step();
  }

  PretrainResult out;
  Tensor logits = mlp.Forward(/*training=*/false);
  out.probs = SoftmaxRowsValue(logits->value);
  out.hidden_reps = mlp.HiddenRepresentation()->value;
  out.fit = Evaluate(logits->value, g.labels, fit_nodes);
  out.seconds = timer.Seconds();
  return out;
}

double NodeSimilarity(const Matrix& hidden_reps, int i, int j) {
  return (1.0 + hidden_reps.RowCosine(i, hidden_reps, j)) / 2.0;
}

std::vector<double> RowSelfDots(const Matrix& m) {
  std::vector<double> dots(static_cast<size_t>(m.rows()));
  for (int r = 0; r < m.rows(); ++r) {
    // The exact accumulation RowCosine's fused loop performs for its `na`
    // term — the three accumulators there are independent, so hoisting
    // this one changes no bit of the cosine.
    const double* p = m.row(r);
    double s = 0.0;
    for (int c = 0; c < m.cols(); ++c) s += p[c] * p[c];
    dots[static_cast<size_t>(r)] = s;
  }
  return dots;
}

}  // namespace bsg
