// The SpMM kernel widths (tensor/ops.h): each compiled width, run directly,
// and the dispatched one behind SpmmValue and ops::SpMM must equal the
// scalar loop bit for bit, over weighted and unweighted CSRs, with and
// without a row list and a row map, accumulating onto zero and non-zero
// outputs, at column counts on either side of every vector and group
// width, and with inputs salted with -0.0, NaN, +-Inf and subnormals.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr.h"
#include "tensor/ops.h"
#include "test_common.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bsg {
namespace {

using bsg::testing::SameBits;
using bsg::testing::ThreadGuard;

// Column counts around the SSE2 vector (2) and group (8) and the AVX-512F
// vector (8) and group (32) widths.
const int kDims[] = {1, 7, 8, 9, 16, 31, 32, 33, 65};

std::vector<ops::SpmmWidth> SupportedWidths() {
  std::vector<ops::SpmmWidth> out;
  for (ops::SpmmWidth w : {ops::SpmmWidth::kSse2, ops::SpmmWidth::kAvx512f}) {
    if (ops::SpmmWidthSupported(w)) {
      out.push_back(w);
    } else {
      std::printf("[  SKIPPED ] %s SpMM width: not supported on this "
                  "build/CPU\n",
                  ops::SpmmWidthName(w));
    }
  }
  return out;
}

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

TEST(SpmmWidths, EachMatchesTheScalarLoopBitwise) {
  ThreadGuard guard;
  const std::vector<ops::SpmmWidth> widths = SupportedWidths();
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
              for (ops::SpmmWidth width : widths) {
                Matrix got = out0;
                ops::SpmmAccumulate(width, *a, src, rows_p, map_p, &got);
                EXPECT_TRUE(SameBits(got, want))
                    << ops::SpmmWidthName(width) << " threads=" << threads;
              }
              if (!nonzero_out) {
                EXPECT_TRUE(SameBits(SpmmValue(*a, src, rows_p, map_p), want))
                    << "SpmmValue threads=" << threads;
              }
              if (!nonzero_out && !use_map) {
                const SpMat sp{std::make_shared<Csr>(*a),
                               std::make_shared<Csr>(a->Transposed())};
                const Tensor t = MakeTensor(src);
                const Matrix got = use_rows ? ops::SpMM(sp, t, rows)->value
                                            : ops::SpMM(sp, t)->value;
                EXPECT_TRUE(SameBits(got, want))
                    << "ops::SpMM threads=" << threads;
              }
            }
          }
        }
      }
    }
  }
}

// A row map gives the same bits as the operand gathered through it: the
// inference forward's first layer reads the Eq. 9 table this way.
TEST(SpmmWidths, RowMapEqualsTheGatheredOperand) {
  Rng rng(1202);
  const int n = 70;
  std::vector<std::pair<int, int>> edges;
  for (int e = 0; e < 250; ++e) {
    edges.emplace_back(static_cast<int>(rng.UniformInt(n)),
                       static_cast<int>(rng.UniformInt(n)));
  }
  const Csr a = Csr::FromEdgesSymmetric(n, edges).Normalized(CsrNorm::kSym);
  const Matrix table = Salted(120, 32, &rng);
  std::vector<int> map(n);
  for (int& s : map) s = static_cast<int>(rng.UniformInt(120));
  const std::vector<int> centres = {0, 33, 69};
  EXPECT_TRUE(SameBits(SpmmValue(a, table, nullptr, &map),
                       SpmmValue(a, table.GatherRows(map))));
  EXPECT_TRUE(SameBits(SpmmValue(a, table, &centres, &map),
                       SpmmValue(a, table.GatherRows(map), &centres)));
}

TEST(SpmmWidths, RejectsAMalformedRowMap) {
  const Csr a = Csr::FromEdges(3, {{0, 1}, {1, 2}});
  const Matrix table(4, 2);
  const std::vector<int> short_map = {0, 1};
  const std::vector<int> bad_map = {0, 1, 4};
  EXPECT_DEATH(SpmmValue(a, table, nullptr, &short_map),
               "row map size mismatch");
  EXPECT_DEATH(SpmmValue(a, table, nullptr, &bad_map),
               "row map entry out of range");
  EXPECT_DEATH(SpmmValue(a, table), "SpMM shape mismatch");  // 3 vs 4 rows
}

// SpMM and SpmmValue use the widest supported width; the log line shows
// which one a host ran (a CPU without avx512f silently gets SSE2).
TEST(SpmmWidths, DispatchesTheWidestSupportedWidth) {
  const ops::SpmmWidth width = ops::DispatchedSpmmWidth();
  std::printf("dispatched SpMM width: %s\n", ops::SpmmWidthName(width));
  EXPECT_TRUE(ops::SpmmWidthSupported(width));
  EXPECT_TRUE(ops::SpmmWidthSupported(ops::SpmmWidth::kSse2));
  if (ops::SpmmWidthSupported(ops::SpmmWidth::kAvx512f)) {
    EXPECT_EQ(width, ops::SpmmWidth::kAvx512f);
  }
}

}  // namespace
}  // namespace bsg
