#include "ppr/ppr.h"

#include <algorithm>

namespace bsg {

void TopKInto(const SparseVec& vec, int k, SparseVec* out, int exclude) {
  out->clear();
  if (k <= 0) return;
  if (out->capacity() < vec.size()) out->reserve(vec.size());
  for (const auto& e : vec) {
    if (e.first != exclude) out->push_back(e);
  }
  auto cmp = [](const std::pair<int, double>& a,
                const std::pair<int, double>& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (static_cast<int>(out->size()) > k) {
    std::partial_sort(out->begin(), out->begin() + k, out->end(), cmp);
    out->resize(k);
  } else {
    // k covers every candidate: no selection needed, just the ordering
    // sort, in place in the caller's buffer.
    std::sort(out->begin(), out->end(), cmp);
  }
}

SparseVec TopK(const SparseVec& vec, int k, int exclude) {
  SparseVec out;
  TopKInto(vec, k, &out, exclude);
  return out;
}

}  // namespace bsg
