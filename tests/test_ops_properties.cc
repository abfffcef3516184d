// Parameterised property tests over the tensor ops: algebraic identities
// that must hold for random shapes and seeds.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "graph/csr.h"
#include "tensor/matrix_f.h"
#include "tensor/ops.h"
#include "test_common.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bsg {
namespace {

class OpsProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  ~OpsProperty() override { SetNumThreads(0); }
  Rng rng_{GetParam()};
};

using bsg::testing::SameBits;

// Random segment partition of [0, edges) with a sprinkling of empty
// segments (repeated boundaries).
std::shared_ptr<std::vector<int64_t>> RandomSegments(Rng* rng, int edges,
                                                     int segments) {
  auto seg_ptr = std::make_shared<std::vector<int64_t>>();
  seg_ptr->push_back(0);
  for (int s = 1; s < segments; ++s) {
    // ~1 in 4 boundaries duplicates an existing one => empty segment.
    seg_ptr->push_back(rng->Bernoulli(0.25) && seg_ptr->size() > 1
                           ? seg_ptr->back()
                           : static_cast<int64_t>(rng->UniformInt(edges + 1)));
  }
  seg_ptr->push_back(edges);
  std::sort(seg_ptr->begin(), seg_ptr->end());
  return seg_ptr;
}

TEST_P(OpsProperty, SpMMMatchesDenseMatMul) {
  const int n = 12 + static_cast<int>(rng_.UniformInt(10));
  const int d = 3 + static_cast<int>(rng_.UniformInt(6));
  std::vector<std::pair<int, int>> edges;
  for (int e = 0; e < 4 * n; ++e) {
    edges.emplace_back(static_cast<int>(rng_.UniformInt(n)),
                       static_cast<int>(rng_.UniformInt(n)));
  }
  Csr adj = Csr::FromEdgesSymmetric(n, edges).Normalized(CsrNorm::kSym);
  // Densify the adjacency.
  Matrix dense(n, n);
  for (int u = 0; u < n; ++u) {
    const int* nb = adj.NeighborsBegin(u);
    const double* w = adj.WeightsBegin(u);
    for (int e = 0; e < adj.Degree(u); ++e) dense(u, nb[e]) = w[e];
  }
  Tensor x = MakeTensor(Matrix::RandomNormal(n, d, 1.0, &rng_));
  Tensor sparse_out = ops::SpMM(MakeSpMat(adj), x);
  Matrix dense_out = dense.MatMul(x->value);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < d; ++c) {
      EXPECT_NEAR(sparse_out->value(i, c), dense_out(i, c), 1e-10);
    }
  }
}

TEST_P(OpsProperty, ConcatThenSliceIsIdentity) {
  const int n = 4 + static_cast<int>(rng_.UniformInt(5));
  Tensor a = MakeTensor(Matrix::RandomNormal(n, 3, 1.0, &rng_));
  Tensor b = MakeTensor(Matrix::RandomNormal(n, 5, 1.0, &rng_));
  Tensor cc = ops::ConcatCols({a, b});
  Tensor a2 = ops::SliceCols(cc, 0, 3);
  Tensor b2 = ops::SliceCols(cc, 3, 5);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(a2->value(i, c), a->value(i, c));
    }
    for (int c = 0; c < 5; ++c) {
      EXPECT_DOUBLE_EQ(b2->value(i, c), b->value(i, c));
    }
  }
}

TEST_P(OpsProperty, GatherSegmentSumAdjoint) {
  // <Gather(x), y> == <x, SegmentScatter(y)>: verified via autograd — the
  // gradient of sum(Gather(x) * y) wrt x must equal the scatter of y.
  const int n = 6 + static_cast<int>(rng_.UniformInt(4));
  const int m = 10 + static_cast<int>(rng_.UniformInt(6));
  std::vector<int> idx(m);
  for (int i = 0; i < m; ++i) idx[i] = static_cast<int>(rng_.UniformInt(n));
  Tensor x = MakeTensor(Matrix::RandomNormal(n, 2, 1.0, &rng_), true);
  Matrix y = Matrix::RandomNormal(m, 2, 1.0, &rng_);
  Tensor loss = ops::SumAll(ops::Mul(ops::GatherRows(x, idx), MakeTensor(y)));
  Backward(loss);
  Matrix expect(n, 2);
  for (int i = 0; i < m; ++i) {
    expect(idx[i], 0) += y(i, 0);
    expect(idx[i], 1) += y(i, 1);
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x->grad(i, 0), expect(i, 0), 1e-12);
    EXPECT_NEAR(x->grad(i, 1), expect(i, 1), 1e-12);
  }
}

TEST_P(OpsProperty, SoftmaxRowsIsDistribution) {
  const int n = 3 + static_cast<int>(rng_.UniformInt(5));
  const int c = 2 + static_cast<int>(rng_.UniformInt(6));
  Tensor a = MakeTensor(Matrix::RandomNormal(n, c, 3.0, &rng_));
  Tensor y = ops::SoftmaxRows(a);
  for (int i = 0; i < n; ++i) {
    double total = 0.0;
    for (int j = 0; j < c; ++j) {
      EXPECT_GE(y->value(i, j), 0.0);
      total += y->value(i, j);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST_P(OpsProperty, SoftmaxRowsShiftInvariant) {
  const int c = 4;
  Tensor a = MakeTensor(Matrix::RandomNormal(3, c, 1.0, &rng_));
  Matrix shifted = a->value;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < c; ++j) shifted(i, j) += 100.0;
  }
  Tensor y1 = ops::SoftmaxRows(a);
  Tensor y2 = ops::SoftmaxRows(MakeTensor(shifted));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < c; ++j) {
      EXPECT_NEAR(y1->value(i, j), y2->value(i, j), 1e-12);
    }
  }
}

TEST_P(OpsProperty, ScaleComposesWithScalars) {
  Tensor a = MakeTensor(Matrix::RandomNormal(4, 4, 1.0, &rng_));
  Tensor s = MakeTensor(Matrix::FromRows({{2.5}}));
  Tensor via_scalar = ops::ScaleByScalar(a, s);
  Tensor via_const = ops::Scale(a, 2.5);
  for (size_t i = 0; i < a->value.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_scalar->value.data()[i], via_const->value.data()[i]);
  }
}

TEST_P(OpsProperty, CrossEntropyNonNegativeAndCalibrated) {
  const int n = 8;
  Tensor logits = MakeTensor(Matrix::RandomNormal(n, 2, 1.5, &rng_), true);
  std::vector<int> labels(n);
  std::vector<int> mask(n);
  for (int i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng_.UniformInt(2));
    mask[i] = i;
  }
  Tensor loss = ops::SoftmaxCrossEntropy(logits, labels, mask);
  EXPECT_GE(loss->value(0, 0), 0.0);
  // Perfectly confident correct logits drive the loss to ~0.
  Matrix perfect(n, 2);
  for (int i = 0; i < n; ++i) perfect(i, labels[i]) = 50.0;
  Tensor zero_loss =
      ops::SoftmaxCrossEntropy(MakeTensor(perfect), labels, mask);
  EXPECT_NEAR(zero_loss->value(0, 0), 0.0, 1e-9);
}

TEST_P(OpsProperty, MeanAllMatchesSumAll) {
  const int n = 3 + static_cast<int>(rng_.UniformInt(4));
  const int c = 2 + static_cast<int>(rng_.UniformInt(4));
  Tensor a = MakeTensor(Matrix::RandomNormal(n, c, 1.0, &rng_));
  EXPECT_NEAR(ops::MeanAll(a)->value(0, 0) * n * c,
              ops::SumAll(a)->value(0, 0), 1e-9);
}

TEST_P(OpsProperty, SegmentSoftmaxSegmentsSumToOne) {
  // Parallelised over segments: every non-empty segment must still form a
  // probability distribution, at any thread count. Sizes exceed the segment
  // grain (64) so several chunks really run.
  const int edges = 500 + static_cast<int>(rng_.UniformInt(200));
  const int segments = 150 + static_cast<int>(rng_.UniformInt(50));
  auto seg_ptr = RandomSegments(&rng_, edges, segments);
  Tensor scores = MakeTensor(Matrix::RandomNormal(edges, 1, 2.0, &rng_));
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    Tensor y = ops::SegmentSoftmax(scores, seg_ptr);
    for (size_t s = 0; s + 1 < seg_ptr->size(); ++s) {
      int64_t lo = (*seg_ptr)[s], hi = (*seg_ptr)[s + 1];
      if (lo == hi) continue;
      double total = 0.0;
      for (int64_t e = lo; e < hi; ++e) {
        EXPECT_GE(y->value(static_cast<int>(e), 0), 0.0);
        total += y->value(static_cast<int>(e), 0);
      }
      EXPECT_NEAR(total, 1.0, 1e-12) << "segment " << s;
    }
  }
}

TEST_P(OpsProperty, SegmentSoftmaxShiftInvariantPerSegment) {
  const int edges = 300;
  auto seg_ptr = RandomSegments(&rng_, edges, 90);
  Matrix base = Matrix::RandomNormal(edges, 1, 1.0, &rng_);
  // Shift each segment by its own constant: softmax must not move.
  Matrix shifted = base;
  for (size_t s = 0; s + 1 < seg_ptr->size(); ++s) {
    double shift = rng_.Uniform(-50.0, 50.0);
    for (int64_t e = (*seg_ptr)[s]; e < (*seg_ptr)[s + 1]; ++e) {
      shifted(static_cast<int>(e), 0) += shift;
    }
  }
  SetNumThreads(4);
  Tensor y1 = ops::SegmentSoftmax(MakeTensor(base), seg_ptr);
  Tensor y2 = ops::SegmentSoftmax(MakeTensor(shifted), seg_ptr);
  for (int e = 0; e < edges; ++e) {
    EXPECT_NEAR(y1->value(e, 0), y2->value(e, 0), 1e-12);
  }
}

TEST_P(OpsProperty, SegmentSoftmaxEmptySegmentsAndThreadInvariance) {
  // All-empty interior segments plus a bitwise 1-vs-4-thread check of the
  // forward value and the backward gradient.
  const int edges = 400;
  auto seg_ptr = RandomSegments(&rng_, edges, 130);
  Matrix scores_val = Matrix::RandomNormal(edges, 1, 1.5, &rng_);
  auto run = [&](int threads) {
    SetNumThreads(threads);
    Tensor scores = MakeTensor(scores_val, /*requires_grad=*/true);
    Tensor y = ops::SegmentSoftmax(scores, seg_ptr);
    Backward(ops::SumAll(ops::Mul(y, y)));
    return std::make_pair(y->value, scores->grad);
  };
  auto [y1, g1] = run(1);
  auto [y4, g4] = run(4);
  EXPECT_TRUE(SameBits(y1, y4));
  EXPECT_TRUE(SameBits(g1, g4));

  // A degenerate all-empty-except-one partition must not crash or write
  // outside the single live segment.
  auto degenerate = std::make_shared<std::vector<int64_t>>(
      std::vector<int64_t>{0, 0, 0, edges, edges});
  Tensor y = ops::SegmentSoftmax(MakeTensor(scores_val), degenerate);
  double total = 0.0;
  for (int e = 0; e < edges; ++e) total += y->value(e, 0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_P(OpsProperty, SoftmaxRowsParallelRowsSumToOne) {
  // Taller than the row grain (64) so the parallel path really splits.
  const int n = 200 + static_cast<int>(rng_.UniformInt(100));
  const int c = 2 + static_cast<int>(rng_.UniformInt(6));
  Tensor a = MakeTensor(Matrix::RandomNormal(n, c, 3.0, &rng_));
  SetNumThreads(4);
  Tensor y = ops::SoftmaxRows(a);
  for (int i = 0; i < n; ++i) {
    double total = 0.0;
    for (int j = 0; j < c; ++j) {
      EXPECT_GE(y->value(i, j), 0.0);
      total += y->value(i, j);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST_P(OpsProperty, SoftmaxRowsParallelShiftInvariantAndThreadInvariant) {
  const int n = 190;
  const int c = 5;
  Matrix base = Matrix::RandomNormal(n, c, 1.0, &rng_);
  Matrix shifted = base;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < c; ++j) shifted(i, j) += 1000.0;
  }
  auto run = [&](const Matrix& m, int threads) {
    SetNumThreads(threads);
    Tensor a = MakeTensor(m, /*requires_grad=*/true);
    Tensor y = ops::SoftmaxRows(a);
    Backward(ops::SumAll(ops::Mul(y, y)));
    return std::make_pair(y->value, a->grad);
  };
  auto [y1, g1] = run(base, 1);
  auto [y4, g4] = run(base, 4);
  EXPECT_TRUE(SameBits(y1, y4));  // forward bit-identical across threads
  EXPECT_TRUE(SameBits(g1, g4));  // backward too
  auto [ys, gs] = run(shifted, 4);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < c; ++j) {
      // The softmax value and its backward depend only on the normalised
      // distribution, so both are invariant to the constant shift.
      EXPECT_NEAR(y4(i, j), ys(i, j), 1e-12) << i << "," << j;
      EXPECT_NEAR(g4(i, j), gs(i, j), 1e-9) << i << "," << j;
    }
  }
}

// ---- Fused kernels: must match their unfused compositions bit for bit ----

TEST_P(OpsProperty, FusedLinearMatchesUnfusedBitwise) {
  const int n = 5 + static_cast<int>(rng_.UniformInt(30));
  const int k = 3 + static_cast<int>(rng_.UniformInt(70));  // crosses k-tile
  const int m = 2 + static_cast<int>(rng_.UniformInt(20));
  Matrix xv = Matrix::RandomNormal(n, k, 1.0, &rng_);
  Matrix wv = Matrix::RandomNormal(k, m, 1.0, &rng_);
  Matrix bv = Matrix::RandomNormal(1, m, 1.0, &rng_);
  Matrix cv = Matrix::RandomNormal(n, m, 1.0, &rng_);  // upstream gradient

  auto run = [&](bool fused) {
    Tensor x = MakeTensor(xv, true);
    Tensor w = MakeTensor(wv, true);
    Tensor b = MakeTensor(bv, true);
    Tensor y = fused ? ops::Linear(x, w, b)
                     : ops::AddRowVec(ops::MatMul(x, w), b);
    Backward(ops::SumAll(ops::Mul(y, MakeTensor(cv))));
    return std::make_tuple(y->value, x->grad, w->grad, b->grad);
  };
  auto [y_ref, gx_ref, gw_ref, gb_ref] = run(false);
  auto [y, gx, gw, gb] = run(true);
  EXPECT_TRUE(SameBits(y, y_ref));    // one-pass forward
  EXPECT_TRUE(SameBits(gx, gx_ref));  // dX = G W^T
  EXPECT_TRUE(SameBits(gw, gw_ref));  // dW = X^T G
  EXPECT_TRUE(SameBits(gb, gb_ref));  // db = colsum(G)
}

TEST_P(OpsProperty, FusedLinearPassesGradcheck) {
  Rng rng(GetParam() ^ 0x5eed);
  Tensor x = MakeTensor(Matrix::RandomNormal(4, 6, 1.0, &rng), true);
  Tensor w = MakeTensor(Matrix::RandomNormal(6, 3, 1.0, &rng), true);
  Tensor b = MakeTensor(Matrix::RandomNormal(1, 3, 1.0, &rng), true);
  bsg::testing::ExpectGradientsMatch({x, w, b}, [&] {
    Tensor y = ops::Linear(x, w, b);
    return ops::MeanAll(ops::Mul(y, y));
  });
}

TEST_P(OpsProperty, FusedAddLeakyReluMatchesUnfusedBitwise) {
  const int n = 4 + static_cast<int>(rng_.UniformInt(20));
  const int c = 3 + static_cast<int>(rng_.UniformInt(10));
  Matrix av = Matrix::RandomNormal(n, c, 1.0, &rng_);
  Matrix bv = Matrix::RandomNormal(n, c, 1.0, &rng_);
  Matrix cv = Matrix::RandomNormal(n, c, 1.0, &rng_);
  // Land some sums exactly on the activation kink, with both zero signs:
  // the fused backward recomputes a + b and must classify these the same
  // way the unfused LeakyRelu classifies its stored input.
  av(0, 0) = 1.5, bv(0, 0) = -1.5;   // +0.0 pre-activation
  av(1, 1) = -0.0, bv(1, 1) = -0.0;  // -0.0 pre-activation
  const double slope = 0.01;

  auto run = [&](bool fused) {
    Tensor a = MakeTensor(av, true);
    Tensor b = MakeTensor(bv, true);
    Tensor y = fused ? ops::AddLeakyRelu(a, b, slope)
                     : ops::LeakyRelu(ops::Add(a, b), slope);
    Backward(ops::SumAll(ops::Mul(y, MakeTensor(cv))));
    return std::make_tuple(y->value, a->grad, b->grad);
  };
  auto [y_ref, ga_ref, gb_ref] = run(false);
  auto [y, ga, gb] = run(true);
  EXPECT_TRUE(SameBits(y, y_ref));
  EXPECT_TRUE(SameBits(ga, ga_ref));
  EXPECT_TRUE(SameBits(gb, gb_ref));
}

TEST_P(OpsProperty, FusedAddReluMatchesUnfusedBitwise) {
  // slope = 0 is the sharp-relu special case: a negative pre-activation
  // zeroes the output, so the fused backward cannot read the activation
  // sign from self->value — it must recompute a + b. Pin it against
  // Relu(Add(a, b)) bitwise, forward and gradients, kink entries included.
  const int n = 4 + static_cast<int>(rng_.UniformInt(12));
  const int c = 3 + static_cast<int>(rng_.UniformInt(8));
  Matrix av = Matrix::RandomNormal(n, c, 1.0, &rng_);
  Matrix bv = Matrix::RandomNormal(n, c, 1.0, &rng_);
  Matrix cv = Matrix::RandomNormal(n, c, 1.0, &rng_);
  av(0, 0) = 2.0, bv(0, 0) = -2.0;   // exact +0.0 pre-activation
  av(1, 1) = -0.0, bv(1, 1) = -0.0;  // exact -0.0 pre-activation
  av(2, 2) = -3.0, bv(2, 2) = 1.0;   // clearly negative: output 0, grad 0

  auto run = [&](bool fused) {
    Tensor a = MakeTensor(av, true);
    Tensor b = MakeTensor(bv, true);
    Tensor y = fused ? ops::AddRelu(a, b) : ops::Relu(ops::Add(a, b));
    Backward(ops::SumAll(ops::Mul(y, MakeTensor(cv))));
    return std::make_tuple(y->value, a->grad, b->grad);
  };
  auto [y_ref, ga_ref, gb_ref] = run(false);
  auto [y, ga, gb] = run(true);
  EXPECT_TRUE(SameBits(y, y_ref));
  EXPECT_TRUE(SameBits(ga, ga_ref));
  EXPECT_TRUE(SameBits(gb, gb_ref));
}

TEST_P(OpsProperty, FusedAddLeakyReluPassesGradcheck) {
  Rng rng(GetParam() ^ 0xadd5);
  Tensor a = MakeTensor(Matrix::RandomNormal(5, 4, 1.0, &rng), true);
  Tensor b = MakeTensor(Matrix::RandomNormal(5, 4, 1.0, &rng), true);
  bsg::testing::ExpectGradientsMatch({a, b}, [&] {
    Tensor y = ops::AddLeakyRelu(a, b, 0.01);
    return ops::MeanAll(ops::Mul(y, y));
  });
}

TEST_P(OpsProperty, DropoutWithMaskSinglePassMatchesReference) {
  const int n = 6 + static_cast<int>(rng_.UniformInt(10));
  const int c = 4 + static_cast<int>(rng_.UniformInt(8));
  Tensor a = MakeTensor(Matrix::RandomNormal(n, c, 1.0, &rng_), true);
  auto mask = ops::MakeDropoutMask(a->value.size(), 0.4, &rng_);
  // Reference: the historical copy-then-multiply sequence.
  Matrix ref = a->value;
  for (size_t i = 0; i < ref.size(); ++i) ref.data()[i] *= (*mask)[i];

  Tensor y = ops::DropoutWithMask(a, mask);
  EXPECT_TRUE(SameBits(y->value, ref));
  Backward(ops::SumAll(y));
  for (size_t i = 0; i < a->grad.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->grad.data()[i], (*mask)[i]);
  }
}

// Oracles for the branch-free activation kernels and the dropout mask:
// each against the scalar loop it replaced, on lengths that leave every
// vector tail (0-3) and a long one (17), with signed zeros, infinities,
// subnormals and NaNs mixed into the operands. A NaN result only has to be
// a NaN; every other result must match bit for bit.
template <class T>
std::vector<T> SpecialValues() {
  using L = std::numeric_limits<T>;
  return {T(0),           -T(0),          L::infinity(), -L::infinity(),
          L::denorm_min(), -L::denorm_min(), -L::min() / 2, L::quiet_NaN(),
          -L::quiet_NaN(), T(1.5),          T(-2.5),      L::max(),
          -L::max(),       T(0.75),         T(-0.125),    T(3)};
}

// Length-n operand: specials from a random offset, every other entry a
// random normal.
template <class T>
std::vector<T> SpecialOperand(size_t n, Rng* rng) {
  const std::vector<T> sp = SpecialValues<T>();
  size_t at = static_cast<size_t>(rng->UniformInt(sp.size()));
  std::vector<T> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng->Bernoulli(0.5) ? sp[at++ % sp.size()]
                               : static_cast<T>(rng->Normal(0.0, 2.0));
  }
  return v;
}

template <class T>
::testing::AssertionResult SameOrBothNaN(const T* got, const T* want,
                                         size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const bool ok = std::isnan(want[i])
                        ? std::isnan(got[i])
                        : std::memcmp(&got[i], &want[i], sizeof(T)) == 0;
    if (!ok) {
      return ::testing::AssertionFailure()
             << "element " << i << ": got " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Matrix RowOf(const std::vector<double>& v) {
  Matrix m(1, static_cast<int>(v.size()));
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

MatrixF RowOfF(const std::vector<float>& v) {
  MatrixF m(1, static_cast<int>(v.size()));
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

const size_t kOracleLengths[] = {0, 1, 2, 3, 17};
const double kOracleSlopes[] = {0.01, 0.0, 0.2};

// Matrix::LeakyReluInPlace, and ops::LeakyRelu forward (the same kernel)
// and backward.
TEST(ActivationOracle, LeakyReluF64MatchesTheScalarLoop) {
  Rng rng(404);
  for (double slope : kOracleSlopes) {
    for (size_t n : kOracleLengths) {
      for (int rep = 0; rep < 8; ++rep) {
        SCOPED_TRACE("slope=" + std::to_string(slope) +
                     " n=" + std::to_string(n));
        const std::vector<double> x = SpecialOperand<double>(n, &rng);
        const std::vector<double> g = SpecialOperand<double>(n, &rng);
        const std::vector<double> gx0 = SpecialOperand<double>(n, &rng);
        std::vector<double> want = x, gx = gx0;
        for (size_t i = 0; i < n; ++i) {
          if (want[i] < 0.0) want[i] *= slope;
          double factor = x[i] >= 0.0 ? 1.0 : slope;
          gx[i] += factor * g[i];
        }
        Matrix got = RowOf(x);
        got.LeakyReluInPlace(slope);
        EXPECT_TRUE(SameOrBothNaN(got.data(), want.data(), n));

        Tensor tx = MakeTensor(RowOf(x), true);
        Tensor out = ops::LeakyRelu(tx, slope);
        EXPECT_TRUE(SameOrBothNaN(out->value.data(), want.data(), n));
        tx->grad = RowOf(gx0);
        out->grad = RowOf(g);
        out->backward_fn(out.get());
        EXPECT_TRUE(SameOrBothNaN(tx->grad.data(), gx.data(), n))
            << "ops::LeakyRelu gradient";
      }
    }
  }
}

TEST(ActivationOracle, AddLeakyReluF64ForwardAndBackwardMatchTheScalarLoop) {
  Rng rng(505);
  for (double slope : kOracleSlopes) {
    for (size_t n : kOracleLengths) {
      for (int rep = 0; rep < 8; ++rep) {
        SCOPED_TRACE("slope=" + std::to_string(slope) +
                     " n=" + std::to_string(n));
        const std::vector<double> a = SpecialOperand<double>(n, &rng);
        const std::vector<double> b = SpecialOperand<double>(n, &rng);
        const std::vector<double> g = SpecialOperand<double>(n, &rng);
        // Gradients already holding a partial sum: the backward adds.
        const std::vector<double> ga0 = SpecialOperand<double>(n, &rng);
        const std::vector<double> gb0 = SpecialOperand<double>(n, &rng);
        std::vector<double> y(n), ga = ga0, gb = gb0;
        for (size_t i = 0; i < n; ++i) {
          double s = a[i] + b[i];
          y[i] = s < 0.0 ? s * slope : s;
          double factor = a[i] + b[i] >= 0.0 ? 1.0 : slope;
          double d = factor * g[i];
          ga[i] += d;
          gb[i] += d;
        }
        for (int needs : {3, 1, 2}) {  // both parents, only a, only b
          Tensor ta = MakeTensor(RowOf(a), (needs & 1) != 0);
          Tensor tb = MakeTensor(RowOf(b), (needs & 2) != 0);
          Tensor out = ops::AddLeakyRelu(ta, tb, slope);
          EXPECT_TRUE(SameOrBothNaN(out->value.data(), y.data(), n));
          ta->grad = RowOf(ga0);
          tb->grad = RowOf(gb0);
          out->grad = RowOf(g);
          out->backward_fn(out.get());
          EXPECT_TRUE(SameOrBothNaN(ta->grad.data(),
                                    (needs & 1) ? ga.data() : ga0.data(), n))
              << "a gradient, needs=" << needs;
          EXPECT_TRUE(SameOrBothNaN(tb->grad.data(),
                                    (needs & 2) ? gb.data() : gb0.data(), n))
              << "b gradient, needs=" << needs;
        }
      }
    }
  }
}

TEST(ActivationOracle, LeakyReluF32MatchesTheScalarLoop) {
  Rng rng(606);
  for (double slope64 : kOracleSlopes) {
    const float slope = static_cast<float>(slope64);
    for (size_t n : kOracleLengths) {
      for (int rep = 0; rep < 8; ++rep) {
        SCOPED_TRACE("slope=" + std::to_string(slope) +
                     " n=" + std::to_string(n));
        const std::vector<float> x = SpecialOperand<float>(n, &rng);
        const std::vector<float> x2 = SpecialOperand<float>(n, &rng);
        std::vector<float> want(n), want_add(n);
        for (size_t i = 0; i < n; ++i) {
          want[i] = x[i] > 0.0f ? x[i] : slope * x[i];
          const float s = x[i] + x2[i];
          want_add[i] = s > 0.0f ? s : slope * s;
        }
        MatrixF got = RowOfF(x);
        got.LeakyReluInPlace(slope);
        EXPECT_TRUE(SameOrBothNaN(got.data(), want.data(), n));
        const MatrixF got_add = AddLeakyReluF(RowOfF(x), RowOfF(x2), slope);
        EXPECT_TRUE(SameOrBothNaN(got_add.data(), want_add.data(), n))
            << "AddLeakyReluF";
      }
    }
  }
}

TEST(DropoutMaskOracle, MatchesTheScalarBernoulliLoopAndRngPosition) {
  for (double p : {0.0, 0.25, 0.5}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{17},
                     size_t{4224}}) {
      SCOPED_TRACE("p=" + std::to_string(p) + " n=" + std::to_string(n));
      Rng got_rng(77 + n), want_rng(77 + n);
      const auto mask = ops::MakeDropoutMask(n, p, &got_rng);
      const double keep_scale = 1.0 / (1.0 - p);
      std::vector<double> want(n);
      for (size_t i = 0; i < n; ++i) {
        want[i] = want_rng.Bernoulli(p) ? 0.0 : keep_scale;
      }
      ASSERT_EQ(mask->size(), n);
      EXPECT_TRUE(n == 0 || std::memcmp(mask->data(), want.data(),
                                        n * sizeof(double)) == 0);
      EXPECT_EQ(got_rng.NextU64(), want_rng.NextU64());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpsProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace bsg
