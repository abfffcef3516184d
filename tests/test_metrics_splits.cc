// Metrics and split utilities.
#include <algorithm>

#include <gtest/gtest.h>

#include "train/metrics.h"
#include "train/splits.h"

namespace bsg {
namespace {

TEST(Metrics, ConfusionHandComputed) {
  std::vector<int> preds = {1, 0, 1, 1, 0};
  std::vector<int> labels = {1, 0, 0, 1, 1};
  std::vector<int> subset = {0, 1, 2, 3, 4};
  Confusion c = ConfusionOn(preds, labels, subset);
  EXPECT_EQ(c.tp, 2);
  EXPECT_EQ(c.tn, 1);
  EXPECT_EQ(c.fp, 1);
  EXPECT_EQ(c.fn, 1);
  EXPECT_DOUBLE_EQ(Accuracy(c), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(Precision(c), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Recall(c), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(F1Score(c), 2.0 / 3.0);
}

TEST(Metrics, SubsetRestriction) {
  std::vector<int> preds = {1, 1, 1};
  std::vector<int> labels = {1, 0, 1};
  Confusion c = ConfusionOn(preds, labels, {0, 2});
  EXPECT_EQ(c.tp, 2);
  EXPECT_EQ(c.fp, 0);
  EXPECT_DOUBLE_EQ(Accuracy(c), 1.0);
}

TEST(Metrics, F1ZeroWhenNoPositives) {
  Confusion c;
  c.tn = 10;
  EXPECT_DOUBLE_EQ(F1Score(c), 0.0);
  EXPECT_DOUBLE_EQ(Accuracy(c), 1.0);
}

TEST(Metrics, EvaluateUsesArgmax) {
  Matrix logits = Matrix::FromRows({{2.0, 1.0}, {0.0, 3.0}});
  EvalResult r = Evaluate(logits, {0, 1}, {0, 1});
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(r.f1, 1.0);
}

TEST(Metrics, PerfectPredictorBounds) {
  // Property: accuracy and F1 always in [0, 1].
  Matrix logits = Matrix::FromRows({{1, 0}, {1, 0}, {0, 1}});
  EvalResult r = Evaluate(logits, {1, 1, 0}, {0, 1, 2});
  EXPECT_GE(r.accuracy, 0.0);
  EXPECT_LE(r.accuracy, 1.0);
  EXPECT_GE(r.f1, 0.0);
  EXPECT_LE(r.f1, 1.0);
}

TEST(Metrics, MeanStd) {
  MeanStd ms = ComputeMeanStd({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(ms.mean, 4.0);
  EXPECT_NEAR(ms.std, std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_EQ(ms.count, 3);
  MeanStd one = ComputeMeanStd({5.0});
  EXPECT_DOUBLE_EQ(one.mean, 5.0);
  EXPECT_DOUBLE_EQ(one.std, 0.0);
  EXPECT_EQ(one.count, 1);
  MeanStd empty = ComputeMeanStd({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.count, 0);
}

TEST(Splits, PartitionAndStratification) {
  Rng rng(1);
  std::vector<int> labels(1000);
  for (int i = 0; i < 1000; ++i) labels[i] = i < 200 ? 1 : 0;
  Splits s = StratifiedSplit(labels, 0.6, 0.2, &rng);
  EXPECT_EQ(s.train.size() + s.val.size() + s.test.size(), 1000u);
  auto bots_in = [&](const std::vector<int>& idx) {
    int b = 0;
    for (int v : idx) b += labels[v];
    return b;
  };
  EXPECT_EQ(bots_in(s.train), 120);
  EXPECT_EQ(bots_in(s.val), 40);
  EXPECT_EQ(bots_in(s.test), 40);
}

TEST(Splits, DisjointSets) {
  Rng rng(2);
  std::vector<int> labels(100, 0);
  for (int i = 0; i < 30; ++i) labels[i] = 1;
  Splits s = StratifiedSplit(labels, 0.5, 0.25, &rng);
  std::vector<int> all;
  all.insert(all.end(), s.train.begin(), s.train.end());
  all.insert(all.end(), s.val.begin(), s.val.end());
  all.insert(all.end(), s.test.begin(), s.test.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(Splits, SubsampleKeepsFractionStratified) {
  Rng rng(3);
  std::vector<int> labels(200);
  std::vector<int> train;
  for (int i = 0; i < 200; ++i) {
    labels[i] = i % 4 == 0 ? 1 : 0;
    train.push_back(i);
  }
  std::vector<int> sub = SubsampleTrainFraction(train, labels, 0.3, &rng);
  int bots = 0;
  for (int v : sub) bots += labels[v];
  EXPECT_EQ(sub.size(), 15u + 45u);
  EXPECT_EQ(bots, 15);
}

TEST(Splits, SubsampleFullFractionIsIdentity) {
  Rng rng(4);
  std::vector<int> labels = {0, 1, 0, 1};
  std::vector<int> train = {0, 1, 2, 3};
  EXPECT_EQ(SubsampleTrainFraction(train, labels, 1.0, &rng), train);
}

TEST(Splits, SubsampleKeepsAtLeastOnePerClass) {
  Rng rng(5);
  std::vector<int> labels = {0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  std::vector<int> train = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> sub = SubsampleTrainFraction(train, labels, 0.1, &rng);
  int bots = 0;
  for (int v : sub) bots += labels[v];
  EXPECT_GE(bots, 1);
}

// Parameterised sweep over fractions: size is monotone in the fraction.
class SubsampleSweep : public ::testing::TestWithParam<double> {};

TEST_P(SubsampleSweep, SizeScalesWithFraction) {
  Rng rng(6);
  std::vector<int> labels(500);
  std::vector<int> train;
  for (int i = 0; i < 500; ++i) {
    labels[i] = i % 5 == 0 ? 1 : 0;
    train.push_back(i);
  }
  double f = GetParam();
  std::vector<int> sub = SubsampleTrainFraction(train, labels, f, &rng);
  EXPECT_NEAR(static_cast<double>(sub.size()), 500.0 * f, 3.0);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SubsampleSweep,
                         ::testing::Values(0.1, 0.2, 0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace bsg
