// Z-score standardisation, fit on one matrix and applicable to others
// (used for numerical metadata and the category-count feature).
#pragma once

#include <vector>

#include "tensor/matrix.h"

namespace bsg {

/// Column-wise standardiser: (x - mean) / std, with std clamped away from 0.
class ZScoreScaler {
 public:
  /// Fits column means and stddevs on `data`.
  void Fit(const Matrix& data);

  /// Returns the standardised copy (Fit must have run; column count must
  /// match the fitted data).
  Matrix Transform(const Matrix& data) const;

  /// Fit + Transform in one step.
  Matrix FitTransform(const Matrix& data);

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stddevs() const { return stddevs_; }

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

}  // namespace bsg
