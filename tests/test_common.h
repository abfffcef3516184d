// Shared fixtures: a small benchmark graph built once per test binary, plus
// helpers for the determinism suites (bitwise comparison, thread-count
// restoration).
#pragma once

#include <cstdio>
#include <cstring>
#include <vector>

#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "graph/hetero_graph.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "util/parallel.h"

namespace bsg::testing {

/// Restores the default thread resolution when a test scope exits.
struct ThreadGuard {
  ~ThreadGuard() { SetNumThreads(0); }
};

/// Bitwise matrix equality (the determinism contract's notion of "same").
inline bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Bitwise double equality (tells -0.0 from +0.0, and a NaN equals itself).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The SIMD widths this build and CPU can run, for the tests that run each
/// kernel width directly; an unsupported one is reported as skipped.
inline std::vector<SimdWidth> SupportedSimdWidths() {
  std::vector<SimdWidth> out;
  for (SimdWidth w : {SimdWidth::kSse2, SimdWidth::kAvx512f}) {
    if (SimdWidthSupported(w)) {
      out.push_back(w);
    } else {
      std::printf("[  SKIPPED ] %s SIMD width: not supported on this "
                  "build/CPU\n",
                  SimdWidthName(w));
    }
  }
  return out;
}

/// A ~500-user, 2-relation benchmark graph (cached across tests).
inline const HeteroGraph& SmallGraph() {
  static const HeteroGraph* graph = [] {
    DatasetConfig cfg = Twibot20Sim();
    cfg.num_users = 500;
    cfg.tweets_per_user = 10;
    return new HeteroGraph(BuildBenchmarkGraph(cfg));
  }();
  return *graph;
}

/// A ~400-user, 7-relation (MGTAB-style) graph.
inline const HeteroGraph& MultiRelationGraph() {
  static const HeteroGraph* graph = [] {
    DatasetConfig cfg = MgtabSim();
    cfg.num_users = 400;
    cfg.tweets_per_user = 8;
    return new HeteroGraph(BuildBenchmarkGraph(cfg));
  }();
  return *graph;
}

}  // namespace bsg::testing
