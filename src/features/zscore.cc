#include "features/zscore.h"

#include "util/parallel.h"
#include "util/status.h"

namespace bsg {

namespace {

// Row-range grain for the parallel transform. Fixed (never derived from
// the thread count) so the chunk layout stays thread-count invariant.
constexpr int kRowGrain = 256;

}  // namespace

void ZScoreScaler::Fit(const Matrix& data) {
  means_ = data.ColMeans();
  stddevs_ = data.ColStddevs();
  for (auto& s : stddevs_) {
    if (s < 1e-12) s = 1.0;  // constant column: pass through centred
  }
}

Matrix ZScoreScaler::Transform(const Matrix& data) const {
  BSG_CHECK(static_cast<size_t>(data.cols()) == means_.size(),
            "ZScoreScaler column mismatch (was Fit called?)");
  Matrix out = data;
  // Elementwise, parallel over row ranges (each row written by one chunk).
  ParallelFor(0, out.rows(), kRowGrain, [&](int64_t i0, int64_t i1) {
    for (int i = static_cast<int>(i0); i < static_cast<int>(i1); ++i) {
      double* r = out.row(i);
      for (int c = 0; c < out.cols(); ++c) {
        r[c] = (r[c] - means_[c]) / stddevs_[c];
      }
    }
  });
  return out;
}

Matrix ZScoreScaler::FitTransform(const Matrix& data) {
  Fit(data);
  return Transform(data);
}

}  // namespace bsg
