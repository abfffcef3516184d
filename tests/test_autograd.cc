// Gradient correctness of every autograd op, verified against central
// finite differences.
#include <memory>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "test_common.h"
#include "graph/csr.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace bsg {
namespace {

using bsg::testing::ExpectGradientsMatch;

Tensor Param(int r, int c, Rng* rng) {
  return MakeTensor(Matrix::RandomNormal(r, c, 0.7, rng), true);
}

TEST(Autograd, MatMulGradient) {
  Rng rng(1);
  Tensor a = Param(3, 4, &rng);
  Tensor b = Param(4, 2, &rng);
  ExpectGradientsMatch({a, b}, [&] {
    return ops::MeanAll(ops::MatMul(a, b));
  });
}

TEST(Autograd, AddSubMulGradient) {
  Rng rng(2);
  Tensor a = Param(3, 3, &rng);
  Tensor b = Param(3, 3, &rng);
  ExpectGradientsMatch({a, b}, [&] {
    Tensor s = ops::Add(ops::Sub(ops::Mul(a, b), a), b);
    return ops::MeanAll(ops::Mul(s, s));
  });
}

TEST(Autograd, AddRowVecGradient) {
  Rng rng(3);
  Tensor a = Param(4, 3, &rng);
  Tensor bias = Param(1, 3, &rng);
  ExpectGradientsMatch({a, bias}, [&] {
    return ops::MeanAll(ops::AddRowVec(a, bias));
  });
}

TEST(Autograd, ScaleGradient) {
  Rng rng(4);
  Tensor a = Param(2, 5, &rng);
  ExpectGradientsMatch({a}, [&] {
    return ops::SumAll(ops::Scale(a, -2.5));
  });
}

TEST(Autograd, ActivationsGradient) {
  Rng rng(5);
  Tensor a = Param(4, 4, &rng);
  ExpectGradientsMatch({a}, [&] {
    Tensor x = ops::LeakyRelu(a, 0.1);
    x = ops::Tanh(x);
    x = ops::Sigmoid(x);
    return ops::MeanAll(x);
  }, 1e-5, 1e-4);
}

TEST(Autograd, ReluIsLeakyWithZeroSlope) {
  Rng rng(6);
  Tensor a = MakeTensor(Matrix::FromRows({{-1.0, 2.0}, {0.5, -3.0}}), true);
  (void)rng;
  Tensor y = ops::Relu(a);
  EXPECT_DOUBLE_EQ(y->value(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y->value(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(y->value(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(y->value(1, 1), 0.0);
}

TEST(Autograd, ConcatColsGradient) {
  Rng rng(7);
  Tensor a = Param(3, 2, &rng);
  Tensor b = Param(3, 4, &rng);
  Tensor c = Param(3, 1, &rng);
  ExpectGradientsMatch({a, b, c}, [&] {
    Tensor cc = ops::ConcatCols({a, b, c});
    return ops::MeanAll(ops::Mul(cc, cc));
  });
}

TEST(Autograd, SliceColsGradient) {
  Rng rng(8);
  Tensor a = Param(3, 6, &rng);
  ExpectGradientsMatch({a}, [&] {
    return ops::MeanAll(ops::SliceCols(a, 2, 3));
  });
}

TEST(Autograd, GatherRowsGradient) {
  Rng rng(9);
  Tensor a = Param(5, 3, &rng);
  std::vector<int> idx = {4, 0, 0, 2};  // duplicates exercise accumulation
  ExpectGradientsMatch({a}, [&] {
    Tensor g = ops::GatherRows(a, idx);
    return ops::MeanAll(ops::Mul(g, g));
  });
}

TEST(Autograd, SpMMGradient) {
  Rng rng(10);
  Csr adj = Csr::FromEdgesSymmetric(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
                .Normalized(CsrNorm::kSym);
  SpMat a = MakeSpMat(adj);
  Tensor x = Param(5, 3, &rng);
  ExpectGradientsMatch({x}, [&] {
    Tensor y = ops::SpMM(a, x);
    return ops::MeanAll(ops::Mul(y, y));
  });
}

TEST(Autograd, SegmentSumGradient) {
  Rng rng(11);
  Tensor msgs = Param(6, 2, &rng);
  auto seg = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{0, 2, 2, 5, 6});
  ExpectGradientsMatch({msgs}, [&] {
    Tensor y = ops::SegmentSum(msgs, seg);
    return ops::MeanAll(ops::Mul(y, y));
  });
}

TEST(Autograd, SegmentSoftmaxGradient) {
  Rng rng(12);
  Tensor scores = Param(7, 1, &rng);
  auto seg = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{0, 3, 4, 7});
  ExpectGradientsMatch({scores}, [&] {
    Tensor y = ops::SegmentSoftmax(scores, seg);
    return ops::MeanAll(ops::Mul(y, y));
  }, 1e-5, 1e-4);
}

TEST(Autograd, SegmentSoftmaxSumsToOnePerSegment) {
  Rng rng(13);
  Tensor scores = Param(8, 1, &rng);
  auto seg = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{0, 4, 8});
  Tensor y = ops::SegmentSoftmax(scores, seg);
  double s1 = 0.0, s2 = 0.0;
  for (int i = 0; i < 4; ++i) s1 += y->value(i, 0);
  for (int i = 4; i < 8; ++i) s2 += y->value(i, 0);
  EXPECT_NEAR(s1, 1.0, 1e-12);
  EXPECT_NEAR(s2, 1.0, 1e-12);
}

TEST(Autograd, MulColVecGradient) {
  Rng rng(14);
  Tensor a = Param(4, 3, &rng);
  Tensor s = Param(4, 1, &rng);
  ExpectGradientsMatch({a, s}, [&] {
    Tensor y = ops::MulColVec(a, s);
    return ops::MeanAll(ops::Mul(y, y));
  });
}

TEST(Autograd, SoftmaxRowsGradient) {
  Rng rng(15);
  Tensor a = Param(3, 4, &rng);
  ExpectGradientsMatch({a}, [&] {
    Tensor y = ops::SoftmaxRows(a);
    return ops::MeanAll(ops::Mul(y, y));
  }, 1e-5, 1e-4);
}

TEST(Autograd, ElementAtAndScaleByScalarGradient) {
  Rng rng(16);
  Tensor a = Param(3, 3, &rng);
  Tensor h = Param(2, 2, &rng);
  ExpectGradientsMatch({a, h}, [&] {
    Tensor s = ops::ElementAt(a, 1, 2);
    Tensor y = ops::ScaleByScalar(h, s);
    return ops::MeanAll(ops::Mul(y, y));
  });
}

TEST(Autograd, SoftmaxCrossEntropyGradient) {
  Rng rng(17);
  Tensor logits = Param(5, 2, &rng);
  std::vector<int> labels = {0, 1, 1, 0, 1};
  std::vector<int> mask = {0, 2, 4};
  ExpectGradientsMatch({logits}, [&] {
    return ops::SoftmaxCrossEntropy(logits, labels, mask);
  });
}

TEST(Autograd, CrossEntropyMatchesManualComputation) {
  Tensor logits = MakeTensor(Matrix::FromRows({{2.0, 0.0}, {0.0, 3.0}}), true);
  Tensor loss = ops::SoftmaxCrossEntropy(logits, {0, 1}, {0, 1});
  double l0 = -std::log(std::exp(2.0) / (std::exp(2.0) + 1.0));
  double l1 = -std::log(std::exp(3.0) / (std::exp(3.0) + 1.0));
  EXPECT_NEAR(loss->value(0, 0), (l0 + l1) / 2.0, 1e-12);
}

TEST(Autograd, MaskedRowsGetNoGradient) {
  Tensor logits = MakeTensor(Matrix::FromRows({{1.0, -1.0}, {0.5, 0.5}}), true);
  Tensor loss = ops::SoftmaxCrossEntropy(logits, {0, 1}, {0});
  Backward(loss);
  EXPECT_EQ(logits->grad(1, 0), 0.0);
  EXPECT_EQ(logits->grad(1, 1), 0.0);
  EXPECT_NE(logits->grad(0, 0), 0.0);
}

TEST(Autograd, DropoutEvalIsIdentity) {
  Rng rng(18);
  Tensor a = Param(4, 4, &rng);
  Tensor y = ops::Dropout(a, 0.5, /*training=*/false, &rng);
  EXPECT_EQ(y.get(), a.get());
}

TEST(Autograd, DropoutTrainScalesSurvivors) {
  Rng rng(19);
  Tensor a = MakeTensor(Matrix(50, 50, 1.0), true);
  Tensor y = ops::Dropout(a, 0.5, /*training=*/true, &rng);
  int zeros = 0, scaled = 0;
  for (size_t i = 0; i < y->value.size(); ++i) {
    double v = y->value.data()[i];
    if (v == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 2.0, 1e-12);
      ++scaled;
    }
  }
  EXPECT_GT(zeros, 800);
  EXPECT_GT(scaled, 800);
}

TEST(Autograd, SharedSubexpressionAccumulatesOnce) {
  // loss = mean(a + a): gradient must be 2/size per entry, not 1/size.
  Tensor a = MakeTensor(Matrix(2, 2, 3.0), true);
  Tensor loss = ops::MeanAll(ops::Add(a, a));
  Backward(loss);
  for (size_t i = 0; i < a->grad.size(); ++i) {
    EXPECT_NEAR(a->grad.data()[i], 2.0 / 4.0, 1e-12);
  }
}

TEST(Autograd, BackwardReinitialisesGradients) {
  Tensor a = MakeTensor(Matrix(2, 2, 1.0), true);
  Tensor loss = ops::MeanAll(a);
  Backward(loss);
  Matrix first = a->grad;
  Backward(loss);  // second run must not double-accumulate
  for (size_t i = 0; i < a->grad.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->grad.data()[i], first.data()[i]);
  }
}

TEST(Autograd, NoGradForConstants) {
  Rng rng(20);
  Tensor c = MakeTensor(Matrix::RandomNormal(3, 3, 1.0, &rng), false);
  Tensor p = Param(3, 3, &rng);
  Tensor loss = ops::MeanAll(ops::MatMul(c, p));
  EXPECT_TRUE(loss->requires_grad);
  Backward(loss);
  EXPECT_NE(p->grad.AbsMax(), 0.0);
  EXPECT_TRUE(c->grad.empty());  // no backward reads or writes it
}

// The gradient contract (TensorNode::grad): Backward() gives storage only
// to nodes that require grad, and the root. A large constant leaf feeding a
// trainable op, and every node computed only from constants, keep an empty
// grad; the trainable side gets its full gradient.
TEST(Autograd, LargeConstantLeafKeepsNoGradStorage) {
  Rng rng(21);
  Tensor features = MakeTensor(Matrix::RandomNormal(2000, 65, 1.0, &rng));
  Tensor gathered = ops::GatherRows(features, {5, 1999, 0, 5});
  Tensor scaled = ops::Scale(gathered, 0.5);  // constant-only chain
  Tensor w = Param(65, 3, &rng);
  Tensor loss = ops::MeanAll(ops::Tanh(ops::MatMul(scaled, w)));
  Backward(loss);
  EXPECT_TRUE(features->grad.empty());
  EXPECT_TRUE(gathered->grad.empty());
  EXPECT_TRUE(scaled->grad.empty());
  ASSERT_EQ(w->grad.rows(), 65);
  ASSERT_EQ(w->grad.cols(), 3);
  EXPECT_NE(w->grad.AbsMax(), 0.0);
  EXPECT_EQ(loss->grad.rows(), 1);  // the root is seeded
  ExpectGradientsMatch({w}, [&] {
    return ops::MeanAll(ops::Tanh(ops::MatMul(scaled, w)));
  });
}

// A weight read by two products gets each product on its own and adds it:
// computing the second straight into the grad would continue the first
// one's sums term by term and round differently. Both products have the
// same value here, so the expectation does not depend on their order.
TEST(Autograd, SharedOperandAddsEachProductSeparately) {
  Rng rng(23);
  const Matrix xv = Matrix::RandomNormal(37, 9, 1.0, &rng);
  const Matrix cv = Matrix::RandomNormal(37, 5, 1.0, &rng);
  Tensor x1 = MakeTensor(xv);
  Tensor x2 = MakeTensor(xv);
  Tensor w = Param(9, 5, &rng);
  Tensor y = ops::Add(ops::MatMul(x1, w), ops::MatMul(x2, w));
  Backward(ops::SumAll(ops::Mul(y, MakeTensor(cv))));
  Matrix want(9, 5);
  want.Add(xv.MatMulTN(cv));
  want.Add(xv.MatMulTN(cv));
  EXPECT_TRUE(bsg::testing::SameBits(w->grad, want));
}

// Backward() counts each node's gradient contributions: a node named by one
// parent slot gets 1, a shared one gets one per slot.
TEST(Autograd, BackwardCountsGradientContributions) {
  Rng rng(22);
  Tensor x = Param(3, 4, &rng);
  Tensor w = Param(4, 2, &rng);
  Tensor h = ops::MatMul(x, w);
  Tensor loss = ops::MeanAll(ops::Add(ops::Mul(h, h), ops::MatMul(x, w)));
  Backward(loss);
  EXPECT_EQ(h->grad_contributions, 2);  // Mul(h, h)
  EXPECT_EQ(x->grad_contributions, 2);  // two MatMuls
  EXPECT_EQ(w->grad_contributions, 2);
  EXPECT_EQ(loss->grad_contributions, 0);
  ExpectGradientsMatch({x, w}, [&] {
    Tensor hh = ops::MatMul(x, w);
    return ops::MeanAll(ops::Add(ops::Mul(hh, hh), ops::MatMul(x, w)));
  });
}

}  // namespace
}  // namespace bsg
