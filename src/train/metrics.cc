#include "train/metrics.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/ops.h"
#include "util/status.h"

namespace bsg {

Confusion ConfusionOn(const std::vector<int>& predictions,
                      const std::vector<int>& labels,
                      const std::vector<int>& subset) {
  BSG_CHECK(predictions.size() == labels.size(),
            "prediction/label size mismatch");
  Confusion c;
  for (int v : subset) {
    BSG_CHECK(v >= 0 && v < static_cast<int>(labels.size()),
              "subset index out of range");
    if (labels[v] == 1) {
      predictions[v] == 1 ? ++c.tp : ++c.fn;
    } else {
      predictions[v] == 1 ? ++c.fp : ++c.tn;
    }
  }
  return c;
}

double Accuracy(const Confusion& c) {
  int64_t total = c.tp + c.fp + c.tn + c.fn;
  return total > 0 ? static_cast<double>(c.tp + c.tn) / total : 0.0;
}

double Precision(const Confusion& c) {
  int64_t denom = c.tp + c.fp;
  return denom > 0 ? static_cast<double>(c.tp) / denom : 0.0;
}

double Recall(const Confusion& c) {
  int64_t denom = c.tp + c.fn;
  return denom > 0 ? static_cast<double>(c.tp) / denom : 0.0;
}

double F1Score(const Confusion& c) {
  double p = Precision(c), r = Recall(c);
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

EvalResult Evaluate(const Matrix& logits, const std::vector<int>& labels,
                    const std::vector<int>& subset) {
  std::vector<int> preds = ArgmaxRows(logits);
  Confusion c = ConfusionOn(preds, labels, subset);
  return EvalResult{Accuracy(c), F1Score(c)};
}

double RocAuc(const std::vector<double>& scores,
              const std::vector<int>& labels, const std::vector<int>& subset) {
  BSG_CHECK(scores.size() == labels.size(), "scores/labels size mismatch");
  // Collect (score, label) restricted to the subset and sort by score.
  std::vector<std::pair<double, int>> ranked;
  ranked.reserve(subset.size());
  int64_t positives = 0, negatives = 0;
  for (int v : subset) {
    ranked.emplace_back(scores[v], labels[v]);
    labels[v] == 1 ? ++positives : ++negatives;
  }
  if (positives == 0 || negatives == 0) return 0.5;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Midrank-based rank sum of the positive class.
  double rank_sum = 0.0;
  size_t i = 0;
  while (i < ranked.size()) {
    size_t j = i;
    while (j < ranked.size() && ranked[j].first == ranked[i].first) ++j;
    double midrank = (static_cast<double>(i) + static_cast<double>(j - 1)) /
                         2.0 +
                     1.0;  // ranks are 1-based
    for (size_t k = i; k < j; ++k) {
      if (ranked[k].second == 1) rank_sum += midrank;
    }
    i = j;
  }
  double auc = (rank_sum - static_cast<double>(positives) *
                               (static_cast<double>(positives) + 1.0) / 2.0) /
               (static_cast<double>(positives) * static_cast<double>(negatives));
  return auc;
}

std::vector<double> BotScores(const Matrix& logits) {
  BSG_CHECK(logits.cols() == 2, "BotScores expects 2-class logits");
  std::vector<double> out(logits.rows());
  for (int i = 0; i < logits.rows(); ++i) {
    // Monotone in the softmax bot probability.
    out[i] = logits(i, 1) - logits(i, 0);
  }
  return out;
}

MeanStd ComputeMeanStd(const std::vector<double>& values) {
  MeanStd out;
  out.count = static_cast<int>(values.size());
  if (values.empty()) return out;
  for (double v : values) out.mean += v;
  out.mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - out.mean) * (v - out.mean);
  out.std = std::sqrt(var / static_cast<double>(values.size()));
  return out;
}

}  // namespace bsg
