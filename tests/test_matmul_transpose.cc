// Transpose-aware dense kernels: MatMulTN (A^T B) and MatMulNT (A B^T)
// must match the materialised Transposed().MatMul(...) reference bit for
// bit across shapes and thread counts, and the MatMul autograd backward —
// which now runs on these kernels with no Transposed() call — must pass
// gradcheck.
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "test_common.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bsg {
namespace {

using bsg::testing::SameBits;
using bsg::testing::ThreadGuard;

// Shapes as (rows_a, cols_a): deliberately non-square, 1-row, 1-col, tall,
// wide, and larger than the row grain (16) and the register tiles (4 x 8,
// 4 x 16) so chunking and tiling edges are all exercised.
const std::vector<std::pair<int, int>> kShapes = {
    {3, 5}, {1, 7}, {7, 1}, {1, 1}, {19, 4}, {4, 19}, {70, 33}, {33, 70}};

TEST(MatMulTransposed, TNMatchesMaterialisedTransposeBitwise) {
  ThreadGuard guard;
  Rng rng(101);
  for (const auto& [n, m] : kShapes) {
    const int k = 1 + static_cast<int>(rng.UniformInt(40));
    Matrix a = Matrix::RandomNormal(n, m, 1.0, &rng);  // A^T is m x n
    Matrix b = Matrix::RandomNormal(n, k, 1.0, &rng);
    Matrix ref = a.Transposed().MatMul(b);
    for (int threads : {1, 2, 4}) {
      SetNumThreads(threads);
      EXPECT_TRUE(SameBits(a.MatMulTN(b), ref))
          << "shape " << n << "x" << m << " * " << n << "x" << k
          << " threads=" << threads;
    }
  }
}

TEST(MatMulTransposed, NTMatchesMaterialisedTransposeBitwise) {
  ThreadGuard guard;
  Rng rng(202);
  for (const auto& [n, m] : kShapes) {
    const int k = 1 + static_cast<int>(rng.UniformInt(40));
    Matrix a = Matrix::RandomNormal(n, m, 1.0, &rng);
    Matrix b = Matrix::RandomNormal(k, m, 1.0, &rng);  // B^T is m x k
    Matrix ref = a.MatMul(b.Transposed());
    for (int threads : {1, 2, 4}) {
      SetNumThreads(threads);
      EXPECT_TRUE(SameBits(a.MatMulNT(b), ref))
          << "shape " << n << "x" << m << " * (" << k << "x" << m
          << ")^T threads=" << threads;
    }
  }
}

TEST(MatMulTransposed, HandlesExactZeroEntries) {
  // A sparse-ish operand with explicit zeros must still match bitwise.
  ThreadGuard guard;
  Rng rng(303);
  Matrix a = Matrix::RandomNormal(37, 21, 1.0, &rng);
  Matrix b = Matrix::RandomNormal(37, 9, 1.0, &rng);
  for (size_t i = 0; i < a.size(); i += 3) a.data()[i] = 0.0;
  EXPECT_TRUE(SameBits(a.MatMulTN(b), a.Transposed().MatMul(b)));
  Matrix c = Matrix::RandomNormal(9, 21, 1.0, &rng);
  EXPECT_TRUE(SameBits(a.MatMulNT(c), a.MatMul(c.Transposed())));
}

TEST(MatMulTransposed, BackwardMatchesMaterialisedFormulasBitwise) {
  // The rewritten MatMul backward (dA = G B^T, dB = A^T G via the new
  // kernels) must reproduce the old Transposed()-materialising gradients
  // exactly.
  ThreadGuard guard;
  Rng rng(404);
  for (const auto& [n, m] : kShapes) {
    const int k = 1 + static_cast<int>(rng.UniformInt(24));
    Tensor a = MakeTensor(Matrix::RandomNormal(n, m, 1.0, &rng), true);
    Tensor b = MakeTensor(Matrix::RandomNormal(m, k, 1.0, &rng), true);
    Tensor c = MakeTensor(Matrix::RandomNormal(n, k, 1.0, &rng));
    Tensor y = ops::MatMul(a, b);
    Backward(ops::SumAll(ops::Mul(y, c)));
    // Seed gradient of y is exactly c's value here (d sum(y*c)/dy = c).
    Matrix want_da = c->value.MatMul(b->value.Transposed());
    Matrix want_db = a->value.Transposed().MatMul(c->value);
    EXPECT_TRUE(SameBits(a->grad, want_da)) << "dA " << n << "x" << m;
    EXPECT_TRUE(SameBits(b->grad, want_db)) << "dB " << m << "x" << k;
  }
}

TEST(MatMulTransposed, GradcheckThroughMatMulBackward) {
  ThreadGuard guard;
  Rng rng(505);
  for (const auto& [n, m] : {std::pair<int, int>{4, 6},
                             std::pair<int, int>{1, 5},
                             std::pair<int, int>{5, 1}}) {
    const int k = 3;
    Tensor a = MakeTensor(Matrix::RandomNormal(n, m, 0.7, &rng), true);
    Tensor b = MakeTensor(Matrix::RandomNormal(m, k, 0.7, &rng), true);
    Tensor c = MakeTensor(Matrix::RandomNormal(n, k, 0.7, &rng));
    bsg::testing::ExpectGradientsMatch({a, b}, [&] {
      return ops::MeanAll(ops::Mul(ops::MatMul(a, b), c));
    });
  }
}

TEST(MatMulTransposed, GradcheckChainedMatMuls) {
  // Two chained products: the inner result is both a child and a parent, so
  // both backward formulas run against a non-trivial upstream gradient.
  ThreadGuard guard;
  Rng rng(606);
  Tensor a = MakeTensor(Matrix::RandomNormal(3, 7, 0.5, &rng), true);
  Tensor b = MakeTensor(Matrix::RandomNormal(7, 4, 0.5, &rng), true);
  Tensor c = MakeTensor(Matrix::RandomNormal(4, 2, 0.5, &rng), true);
  bsg::testing::ExpectGradientsMatch({a, b, c}, [&] {
    return ops::MeanAll(ops::Tanh(ops::MatMul(ops::MatMul(a, b), c)));
  });
}

TEST(MatMulTransposed, GradcheckAtHigherThreadCounts) {
  ThreadGuard guard;
  Rng rng(707);
  Tensor a = MakeTensor(Matrix::RandomNormal(20, 17, 0.5, &rng), true);
  Tensor b = MakeTensor(Matrix::RandomNormal(17, 6, 0.5, &rng), true);
  for (int threads : {2, 4}) {
    SetNumThreads(threads);
    bsg::testing::ExpectGradientsMatch({a, b}, [&] {
      return ops::MeanAll(ops::MatMul(a, b));
    });
  }
}

// The kernels do not skip zero elements of A (`if (a == 0.0) continue;`).
// That must not change a bit: acc starts at +0.0, and accumulating the
// (+/-0.0) * finite products of the skippable terms leaves every
// accumulator unchanged (+0.0 + -0.0 == +0.0 in IEEE round-to-nearest).
// This pins the branchless NT kernel against a zero-skipping dot loop, on
// data salted with +0.0, -0.0 and all-zero rows.
TEST(MatMulTransposed, NTBranchlessMatchesZeroSkipReferenceBitwise) {
  ThreadGuard guard;
  Rng rng(303);
  auto zero_skip_reference = [](const Matrix& a, const Matrix& b) {
    Matrix out(a.rows(), b.rows());
    for (int i = 0; i < a.rows(); ++i) {
      for (int j = 0; j < b.rows(); ++j) {
        double acc = 0.0;
        for (int k = 0; k < a.cols(); ++k) {
          double v = a(i, k);
          if (v == 0.0) continue;  // the removed branch
          acc += v * b(j, k);
        }
        out(i, j) = acc;
      }
    }
    return out;
  };
  for (const auto& [n, m] : kShapes) {
    const int k = 1 + static_cast<int>(rng.UniformInt(40));
    Matrix a = Matrix::RandomNormal(n, m, 1.0, &rng);
    Matrix b = Matrix::RandomNormal(k, m, 1.0, &rng);
    // Salt with exact signed zeros: ~1/3 of A's entries, including the
    // -0.0 + 0.0 edge against both positive and negative B entries, plus
    // one all-zero row of alternating zero signs (a zero dot product).
    for (size_t i = 0; i < a.size(); ++i) {
      if (i % 3 == 0) a.data()[i] = (i % 2 == 0) ? 0.0 : -0.0;
    }
    for (int c = 0; c < m; ++c) a(0, c) = (c % 2 == 0) ? -0.0 : 0.0;
    Matrix ref = zero_skip_reference(a, b);
    for (int threads : {1, 2, 4}) {
      SetNumThreads(threads);
      EXPECT_TRUE(SameBits(a.MatMulNT(b), ref))
          << "shape " << n << "x" << m << " * (" << k << "x" << m
          << ")^T threads=" << threads;
    }
  }
}

// An independent oracle for all four f64 GEMM kernels: the plain triple
// loop, each element summed k-ascending from +0.0, then + bias. The
// kernels' contract (matrix.h) is bit-identity with it, and that skipping
// zero-factor terms is a no-op; the oracle is run both ways.
template <class AOf, class BOf>
Matrix NaiveProduct(int rows, int cols, int inner, AOf a, BOf b,
                    const Matrix* bias, bool skip_zero) {
  Matrix out(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      double acc = 0.0;
      for (int k = 0; k < inner; ++k) {
        if (skip_zero && a(i, k) == 0.0) continue;
        acc += a(i, k) * b(k, j);
      }
      out(i, j) = bias != nullptr ? acc + (*bias)(0, j) : acc;
    }
  }
  return out;
}

// N(0, 1) entries salted with exact zeros, -0.0 and subnormals of both
// signs (whose products underflow to signed zeros).
Matrix SaltedOperand(int rows, int cols, Rng* rng) {
  Matrix m = Matrix::RandomNormal(rows, cols, 1.0, rng);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (size_t i = 0; i < m.size(); ++i) {
    switch (i % 11) {
      case 2: m.data()[i] = 0.0; break;
      case 5: m.data()[i] = -0.0; break;
      case 7: m.data()[i] = tiny * static_cast<double>(1 + i % 97); break;
      case 9: m.data()[i] = -0.5 * std::numeric_limits<double>::min(); break;
      default: break;
    }
  }
  return m;
}

// Every compiled tile variant (gemm.h), run directly, and the Matrix
// methods (the dispatched variant). Columns cover the 16-wide tile, the
// 8-wide fallback and the edge kernel on either side of each width; inner
// 257 spans three k blocks of the tile. The 4092-row case (many row blocks
// of the pool) runs cols {1, 7, 8, 9, 16, 32, 33} at inner <= 65 only: the
// naive loop dominates the time.
TEST(MatMulOracle, AllKernelsMatchTheNaiveTripleLoopBitwise) {
  ThreadGuard guard;
  const std::vector<gemm::Tile> tiles = {gemm::Tile::kSse2,
                                         gemm::Tile::kAvx512f};
  for (gemm::Tile tile : tiles) {
    if (!gemm::TileSupported(tile)) {
      std::printf("[  SKIPPED ] %s tile: not supported on this build/CPU\n",
                  gemm::TileName(tile));
    }
  }
  Rng rng(808);
  for (int rows : {0, 1, 3, 4, 5, 17, 4092}) {
    for (int cols : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 65}) {
      for (int inner : {0, 1, 65, 257}) {
        if (rows == 4092 && (inner == 257 || cols == 15 || cols == 17 ||
                             cols == 31 || cols == 65)) {
          continue;
        }
        SCOPED_TRACE("rows=" + std::to_string(rows) + " cols=" +
                     std::to_string(cols) + " inner=" + std::to_string(inner));
        const Matrix a = SaltedOperand(rows, inner, &rng);      // A
        const Matrix at = SaltedOperand(inner, rows, &rng);     // A^T for TN
        const Matrix b = SaltedOperand(inner, cols, &rng);      // B
        const Matrix bt = SaltedOperand(cols, inner, &rng);     // B^T for NT
        const Matrix bias = SaltedOperand(1, cols, &rng);
        auto a_of = [&](int i, int k) { return a(i, k); };
        auto at_of = [&](int i, int k) { return at(k, i); };
        auto b_of = [&](int k, int j) { return b(k, j); };
        auto bt_of = [&](int k, int j) { return bt(j, k); };
        auto oracle = [&](bool skip) {
          return std::vector<Matrix>{
              NaiveProduct(rows, cols, inner, a_of, b_of, nullptr, skip),
              NaiveProduct(rows, cols, inner, a_of, b_of, &bias, skip),
              NaiveProduct(rows, cols, inner, at_of, b_of, nullptr, skip),
              NaiveProduct(rows, cols, inner, a_of, bt_of, nullptr, skip)};
        };
        const std::vector<Matrix> want = oracle(/*skip=*/false);
        const std::vector<Matrix> want_skip = oracle(/*skip=*/true);
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_TRUE(SameBits(want[i], want_skip[i]))
              << "skipping zero terms changed product " << i;
        }
        for (int threads : {1, 2, 4}) {
          SetNumThreads(threads);
          EXPECT_TRUE(SameBits(a.MatMul(b), want[0])) << "MatMul " << threads;
          EXPECT_TRUE(SameBits(a.MatMulAddBias(b, bias), want[1]))
              << "MatMulAddBias " << threads;
          EXPECT_TRUE(SameBits(at.MatMulTN(b), want[2]))
              << "MatMulTN " << threads;
          EXPECT_TRUE(SameBits(a.MatMulNT(bt), want[3]))
              << "MatMulNT " << threads;
          for (gemm::Tile tile : tiles) {
            if (!gemm::TileSupported(tile)) continue;
            const char* name = gemm::TileName(tile);
            EXPECT_TRUE(SameBits(gemm::MatMul(tile, a, b, nullptr), want[0]))
                << name << " MatMul " << threads;
            EXPECT_TRUE(SameBits(gemm::MatMul(tile, a, b, &bias), want[1]))
                << name << " MatMulAddBias " << threads;
            EXPECT_TRUE(SameBits(gemm::MatMulTN(tile, at, b), want[2]))
                << name << " MatMulTN " << threads;
            EXPECT_TRUE(SameBits(
                gemm::MatMul(tile, a, bt.Transposed(), nullptr), want[3]))
                << name << " MatMulNT " << threads;
          }
        }
      }
    }
  }
}

// The Matrix GEMMs use the widest supported tile; the log line shows which
// one a host ran (a CPU without avx512f silently gets the SSE2 tile).
TEST(MatMulOracle, DispatchesTheWidestSupportedTile) {
  const gemm::Tile tile = gemm::DispatchedTile();
  std::printf("dispatched GEMM tile: %s\n", gemm::TileName(tile));
  EXPECT_TRUE(gemm::TileSupported(tile));
  EXPECT_TRUE(gemm::TileSupported(gemm::Tile::kSse2));
  if (gemm::TileSupported(gemm::Tile::kAvx512f)) {
    EXPECT_EQ(tile, gemm::Tile::kAvx512f);
  }
}

TEST(MatMulTransposed, EmptyInnerDimensionYieldsZeros) {
  // n = 0 inner dimension: both kernels must return an all-zero product of
  // the right shape (and not touch out-of-range memory).
  Matrix a(0, 4);
  Matrix b(0, 3);
  Matrix tn = a.MatMulTN(b);
  EXPECT_EQ(tn.rows(), 4);
  EXPECT_EQ(tn.cols(), 3);
  for (size_t i = 0; i < tn.size(); ++i) EXPECT_EQ(tn.data()[i], 0.0);

  Matrix c(5, 0);
  Matrix d(2, 0);
  Matrix nt = c.MatMulNT(d);
  EXPECT_EQ(nt.rows(), 5);
  EXPECT_EQ(nt.cols(), 2);
  for (size_t i = 0; i < nt.size(); ++i) EXPECT_EQ(nt.data()[i], 0.0);
}

}  // namespace
}  // namespace bsg
