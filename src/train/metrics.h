// Classification metrics: accuracy and binary F1 (bot = positive class),
// matching the paper's evaluation protocol.
#pragma once

#include <vector>

#include "tensor/matrix.h"

namespace bsg {

/// Confusion counts for the binary bot-detection task.
struct Confusion {
  int64_t tp = 0, fp = 0, tn = 0, fn = 0;
};

/// Builds the confusion over the given node subset (class 1 = bot).
Confusion ConfusionOn(const std::vector<int>& predictions,
                      const std::vector<int>& labels,
                      const std::vector<int>& subset);

/// Accuracy / precision / recall / F1 derived from a confusion (F1 = 0 when
/// undefined).
double Accuracy(const Confusion& c);
double Precision(const Confusion& c);
double Recall(const Confusion& c);
double F1Score(const Confusion& c);

/// Metric pair reported in every table.
struct EvalResult {
  double accuracy = 0.0;
  double f1 = 0.0;
};

/// Convenience: argmax over logits, then accuracy/F1 on the subset.
EvalResult Evaluate(const Matrix& logits, const std::vector<int>& labels,
                    const std::vector<int>& subset);

/// ROC-AUC of the bot-probability ranking over the subset, computed via the
/// rank-sum (Mann-Whitney) statistic with midrank tie handling. `scores` is
/// any monotone bot score (e.g. logit or probability of class 1). Returns
/// 0.5 when a class is absent. Robust to class imbalance, which is why the
/// TwiBot-22-style regime benefits from tracking it alongside F1.
double RocAuc(const std::vector<double>& scores,
              const std::vector<int>& labels, const std::vector<int>& subset);

/// Bot-probability column extracted from 2-class logits (softmax of col 1).
std::vector<double> BotScores(const Matrix& logits);

/// Mean and (population) standard deviation of a sample.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
  int count = 0;  ///< sample size; with fewer than 2 the std measures nothing
};
MeanStd ComputeMeanStd(const std::vector<double>& values);

}  // namespace bsg
