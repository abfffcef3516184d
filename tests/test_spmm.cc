// The SpMM kernel widths (tensor/ops.h): each compiled width, run directly,
// and the dispatched one behind SpmmValue and ops::SpMM must equal the
// scalar loop bit for bit, over weighted and unweighted CSRs and over
// block-diagonal operands (SymBlocks, read against the stacked matrix
// tests/csr_oracle.h builds), with and without a row list and a row map,
// accumulating onto zero and non-zero outputs, at column counts on either
// side of every vector and group width, and with inputs salted with -0.0,
// NaN, +-Inf and subnormals. The autograd SpMM's backward over SymBlocks
// must equal the scalar transpose scatter.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "csr_oracle.h"
#include "graph/csr.h"
#include "sym_blocks_util.h"
#include "tensor/ops.h"
#include "test_common.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bsg {
namespace {

using bsg::testing::OwnedSymBlocks;
using bsg::testing::RandomSymBlocks;
using bsg::testing::SameBits;
using bsg::testing::SupportedSimdWidths;
using bsg::testing::StackedSymNormalized;
using bsg::testing::ThreadGuard;

// Column counts around the SSE2 vector (2) and group (8) and the AVX-512F
// vector (8) and group (32) widths.
const int kDims[] = {1, 7, 8, 9, 16, 31, 32, 33, 65};

// N(0, 1) entries salted with -0.0, NaN, +-Inf and subnormals of both
// signs. The NaN is the one Inf - Inf gives on this machine, so every NaN
// a sum can meet has the same bits and the operand order of an addition
// cannot pick a different payload.
Matrix Salted(int rows, int cols, Rng* rng) {
  volatile double inf = std::numeric_limits<double>::infinity();
  const double nan = inf - inf;
  const double tiny = std::numeric_limits<double>::denorm_min();
  Matrix m = Matrix::RandomNormal(rows, cols, 1.0, rng);
  for (size_t i = 0; i < m.size(); ++i) {
    switch (i % 37) {
      case 3: m.data()[i] = -0.0; break;
      case 11: m.data()[i] = tiny * static_cast<double>(1 + i % 89); break;
      case 17: m.data()[i] = -0.5 * std::numeric_limits<double>::min(); break;
      case 23: m.data()[i] = nan; break;
      case 29: m.data()[i] = inf; break;
      case 31: m.data()[i] = -inf; break;
      default: break;
    }
  }
  return m;
}

// The scalar loop: out row i += weight * x row, neighbour by neighbour in
// CSR order, column by column.
Matrix ScalarSpmm(const Csr& a, const Matrix& x, const std::vector<int>* rows,
                  const std::vector<int>* x_rows, Matrix out) {
  for (int i = 0; i < out.rows(); ++i) {
    const int u = rows != nullptr ? (*rows)[i] : i;
    const int* nb = a.NeighborsBegin(u);
    const double* w = a.WeightsBegin(u);
    for (int j = 0; j < a.Degree(u); ++j) {
      const double weight = w != nullptr ? w[j] : 1.0;
      const int src = x_rows != nullptr ? (*x_rows)[nb[j]] : nb[j];
      for (int c = 0; c < out.cols(); ++c) out(i, c) += weight * x(src, c);
    }
  }
  return out;
}

TEST(SpmmOracle, EachMatchesTheScalarLoopBitwise) {
  ThreadGuard guard;
  const std::vector<SimdWidth> widths = SupportedSimdWidths();
  Rng rng(1201);
  // 150 nodes (three row chunks of the pool), some isolated, degrees up to
  // a few dozen, duplicate edges kept.
  const int n = 150;
  std::vector<std::pair<int, int>> edges;
  for (int e = 0; e < 700; ++e) {
    const int u = static_cast<int>(rng.UniformInt(n - 10));
    const int v = e % 7 == 0 ? 3 : static_cast<int>(rng.UniformInt(n - 10));
    edges.emplace_back(u, v);
  }
  const Csr weighted =
      Csr::FromEdgesSymmetric(n, edges).Normalized(CsrNorm::kSym);
  const Csr unweighted = Csr::FromEdges(n, edges);
  ASSERT_EQ(unweighted.WeightsBegin(0), nullptr);
  // An unsorted row list with repeats and an isolated row.
  std::vector<int> rows = {n - 1, 3};
  for (int i = 0; i < 88; ++i) rows.push_back(static_cast<int>(rng.UniformInt(n)));
  rows.push_back(3);
  const int table_rows = 230;
  std::vector<int> x_rows(n);
  for (int& s : x_rows) s = static_cast<int>(rng.UniformInt(table_rows));

  for (int d : kDims) {
    const Matrix x = Salted(n, d, &rng);
    const Matrix table = Salted(table_rows, d, &rng);
    for (const Csr* a : {&weighted, &unweighted}) {
      for (bool use_rows : {false, true}) {
        for (bool use_map : {false, true}) {
          for (bool nonzero_out : {false, true}) {
            SCOPED_TRACE("d=" + std::to_string(d) +
                         (a == &weighted ? " weighted" : " unweighted") +
                         (use_rows ? " rows" : "") + (use_map ? " map" : "") +
                         (nonzero_out ? " onto non-zero" : ""));
            const std::vector<int>* rows_p = use_rows ? &rows : nullptr;
            const std::vector<int>* map_p = use_map ? &x_rows : nullptr;
            const Matrix& src = use_map ? table : x;
            const int m = use_rows ? static_cast<int>(rows.size()) : n;
            const Matrix out0 = nonzero_out ? Salted(m, d, &rng) : Matrix(m, d);
            const Matrix want = ScalarSpmm(*a, src, rows_p, map_p, out0);
            for (int threads : {1, 4}) {
              SetNumThreads(threads);
              for (SimdWidth width : widths) {
                Matrix got = out0;
                ops::SpmmAccumulate(width, *a, src, rows_p, map_p, &got);
                EXPECT_TRUE(SameBits(got, want))
                    << SimdWidthName(width) << " threads=" << threads;
              }
              if (!nonzero_out && !use_map && !use_rows) {
                const SpMat sp{std::make_shared<Csr>(*a),
                               std::make_shared<Csr>(a->Transposed())};
                EXPECT_TRUE(SameBits(ops::SpMM(sp, MakeTensor(src))->value,
                                     want))
                    << "ops::SpMM threads=" << threads;
              }
            }
          }
        }
      }
    }
  }
}

// Column counts of the block tests: around both vector widths and the
// AVX-512F group width, and past two groups.
const int kBlockDims[] = {1, 7, 8, 9, 32, 33, 65};

// The block form of every width, SpmmValue and ops::SpMM over SymBlocks
// equal the scalar loop over the stacked matrix, bit for bit.
TEST(SymSpmmOracle, EachMatchesTheStackedOracleBitwise) {
  ThreadGuard guard;
  const std::vector<SimdWidth> widths = SupportedSimdWidths();
  Rng rng(1204);
  // Enough rows for several row chunks of the pool.
  const OwnedSymBlocks blocks = RandomSymBlocks(&rng, 14, 24, true);
  const SymBlocks& op = blocks.op;
  const Csr stacked = StackedSymNormalized(op);
  const int n = op.rows();
  ASSERT_GT(n, 3 * 64);
  // An unsorted row list with repeats, the wide star's centre and the
  // isolated row.
  int star = -1;
  for (size_t b = 0; b < op.blocks.size(); ++b) {
    if (op.blocks[b].adj->num_nodes() == 100) star = op.offsets[b];
  }
  ASSERT_GE(star, 0);
  const int isolated = op.offsets[op.blocks.size() - 1] + 2;
  ASSERT_EQ(op.blocks.back().adj->Degree(2), 0);
  std::vector<int> rows = {n - 1, star, isolated};
  for (int i = 0; i < 60; ++i) {
    rows.push_back(static_cast<int>(rng.UniformInt(n)));
  }
  rows.push_back(star);
  const int table_rows = 310;
  std::vector<int> x_rows(n);
  for (int& s : x_rows) s = static_cast<int>(rng.UniformInt(table_rows));

  for (int d : kBlockDims) {
    const Matrix x = Salted(n, d, &rng);
    const Matrix table = Salted(table_rows, d, &rng);
    for (bool use_rows : {false, true}) {
      for (bool use_map : {false, true}) {
        for (bool nonzero_out : {false, true}) {
          SCOPED_TRACE("d=" + std::to_string(d) + (use_rows ? " rows" : "") +
                       (use_map ? " map" : "") +
                       (nonzero_out ? " onto non-zero" : ""));
          const std::vector<int>* rows_p = use_rows ? &rows : nullptr;
          const std::vector<int>* map_p = use_map ? &x_rows : nullptr;
          const Matrix& src = use_map ? table : x;
          const int m = use_rows ? static_cast<int>(rows.size()) : n;
          const Matrix out0 = nonzero_out ? Salted(m, d, &rng) : Matrix(m, d);
          const Matrix want = ScalarSpmm(stacked, src, rows_p, map_p, out0);
          for (int threads : {1, 4}) {
            SetNumThreads(threads);
            for (SimdWidth width : widths) {
              Matrix got = out0;
              ops::SpmmAccumulate(width, op, src, rows_p, map_p, &got);
              EXPECT_TRUE(SameBits(got, want))
                  << SimdWidthName(width) << " threads=" << threads;
            }
            if (nonzero_out) continue;
            EXPECT_TRUE(SameBits(SpmmValue(op, src, rows_p, map_p), want))
                << "SpmmValue threads=" << threads;
            if (!use_map) {
              const Tensor t = MakeTensor(src);
              const Matrix got = use_rows ? ops::SpMM(op, t, rows)->value
                                          : ops::SpMM(op, t)->value;
              EXPECT_TRUE(SameBits(got, want))
                  << "ops::SpMM threads=" << threads;
            }
          }
        }
      }
    }
  }
}

// x's gradient through ops::SpMM over SymBlocks is the transpose's
// product, formed as the scalar scatter of every stacked edge: w * g[u]
// into row v, rows u in order (all rows) or in the row list's order (a row
// list), each row in CSR order. The full-row backward runs the operand
// itself, so this is what pins its symmetry.
TEST(SymSpmmOracle, BackwardMatchesTheStackedTransposeScatter) {
  ThreadGuard guard;
  Rng rng(1205);
  const OwnedSymBlocks blocks = RandomSymBlocks(&rng, 10, 20, true);
  const SymBlocks& op = blocks.op;
  const Csr stacked = StackedSymNormalized(op);
  const int n = op.rows();
  std::vector<int> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(static_cast<int>(rng.UniformInt(n)));
  }
  for (int d : {1, 9, 33}) {
    const Matrix xv = Salted(n, d, &rng);
    for (bool use_rows : {false, true}) {
      const int m = use_rows ? static_cast<int>(rows.size()) : n;
      Matrix c = Matrix::RandomNormal(m, d, 1.0, &rng);
      for (size_t i = 0; i < c.size(); i += 4) c.data()[i] = -0.0;
      // The upstream gradient is c; scatter it through the stacked rows.
      Matrix want(n, d);
      for (int i = 0; i < m; ++i) {
        const int u = use_rows ? rows[i] : i;
        const int* nb = stacked.NeighborsBegin(u);
        const double* w = stacked.WeightsBegin(u);
        for (int j = 0; j < stacked.Degree(u); ++j) {
          for (int k = 0; k < d; ++k) want(nb[j], k) += w[j] * c(i, k);
        }
      }
      for (int threads : {1, 4}) {
        SCOPED_TRACE("d=" + std::to_string(d) + (use_rows ? " rows" : "") +
                     " threads=" + std::to_string(threads));
        SetNumThreads(threads);
        Tensor x = MakeTensor(xv, /*requires_grad=*/true);
        Tensor y = use_rows ? ops::SpMM(op, x, rows) : ops::SpMM(op, x);
        Backward(ops::SumAll(ops::Mul(y, MakeTensor(c))));
        EXPECT_TRUE(SameBits(x->grad, want));
      }
    }
  }
}

// A row map gives the same bits as the operand gathered through it: the
// inference forward's first layer reads the Eq. 9 table this way.
TEST(SymSpmmOracle, RowMapEqualsTheGatheredOperand) {
  Rng rng(1202);
  const OwnedSymBlocks blocks = RandomSymBlocks(&rng, 6, 15, false);
  const SymBlocks& a = blocks.op;
  const int n = a.rows();
  const Matrix table = Salted(120, 32, &rng);
  std::vector<int> map(n);
  for (int& s : map) s = static_cast<int>(rng.UniformInt(120));
  const std::vector<int> centres = {0, a.offsets[3], n - 1};
  EXPECT_TRUE(SameBits(SpmmValue(a, table, nullptr, &map),
                       SpmmValue(a, table.GatherRows(map))));
  EXPECT_TRUE(SameBits(SpmmValue(a, table, &centres, &map),
                       SpmmValue(a, table.GatherRows(map), &centres)));
}

TEST(SymSpmmOracle, RejectsMalformedOperands) {
  const OwnedSymBlocks blocks = testing::MakeSymBlocks(
      {Csr::FromEdgesSymmetric(2, {{0, 1}}), Csr::FromEdgesSymmetric(1, {})});
  const SymBlocks& a = blocks.op;  // 3 rows
  const Matrix table(4, 2);
  const std::vector<int> short_map = {0, 1};
  const std::vector<int> bad_map = {0, 1, 4};
  EXPECT_DEATH(SpmmValue(a, table, nullptr, &short_map),
               "row map size mismatch");
  EXPECT_DEATH(SpmmValue(a, table, nullptr, &bad_map),
               "row map entry out of range");
  EXPECT_DEATH(SpmmValue(a, table), "SpMM shape mismatch");  // 3 vs 4 rows
  const std::vector<int> bad_rows = {3};
  EXPECT_DEATH(SpmmValue(a, Matrix(3, 2), &bad_rows), "SpMM row out of range");
  SymBlocks short_dinv = a;
  const std::vector<double> one_value = {1.0};
  short_dinv.blocks[0].inv_sqrt_degree = &one_value;
  EXPECT_DEATH(SpmmValue(short_dinv, Matrix(3, 2)),
               "SymBlocks block size mismatch");
  const Csr weighted = blocks.adjs[0].Normalized(CsrNorm::kSym);
  SymBlocks with_weights = a;
  with_weights.blocks[0].adj = &weighted;
  EXPECT_DEATH(SpmmValue(with_weights, Matrix(3, 2)),
               "SymBlocks weighted block");
}

}  // namespace
}  // namespace bsg
