// Deterministic random number generation.
//
// Every stochastic component in the library takes an explicit seed and uses
// this SplitMix64-based generator, so experiments are reproducible
// bit-for-bit on a given platform.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace bsg {

/// SplitMix64 PRNG. Small state, excellent statistical quality for
/// simulation workloads, trivially seedable and splittable.
class Rng {
 public:
  /// The state increment: draw i (0-based) from state s is
  /// Mix(s + (i + 1) * kGamma).
  static constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;

  explicit Rng(uint64_t seed = kGamma) : state_(seed) {}

  /// SplitMix64's output function.
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Next raw 64-bit value.
  uint64_t NextU64() { return Mix(state_ += kGamma); }

  /// Uniform double in [0, 1).
  double Uniform() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Counter form. SplitMix64's state only ever advances by kGamma, so the
  // i-th draw from here can be computed without the i before it: a caller
  // that knows how many draws a stage takes can hand out disjoint ranges
  // of them (in any order, on any thread) and Skip() past the whole stage,
  // consuming the stream exactly as the serial loop would.

  /// The state the counter form starts from: draw i is
  /// Mix(state() + (i + 1) * kGamma), the (i+1)-th NextU64() from here.
  uint64_t state() const { return state_; }
  /// Advances past n draws: the state n NextU64() or Uniform() calls leave.
  void Skip(uint64_t n) { state_ += n * kGamma; }
  /// The threshold t with `Uniform() < p` ⇔ `(NextU64() >> 11) < t` for the
  /// same draw, for p in [0, 1]: Uniform() is (z >> 11) * 2^-53 exactly,
  /// and for an integer k, k < p * 2^53 ⇔ k < ceil(p * 2^53).
  static uint64_t UniformThreshold(double p) {
    BSG_CHECK(p >= 0.0 && p <= 1.0, "UniformThreshold needs p in [0, 1]");
    return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t UniformInt(uint64_t n) {
    BSG_CHECK(n > 0, "UniformInt(0)");
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
    while (true) {
      uint64_t r = NextU64();
      if (r >= threshold) return r % n;
    }
  }

  /// Standard normal via Box-Muller.
  double Normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300) u1 = Uniform();
    double u2 = Uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 6.283185307179586 * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  /// Normal with mean/stddev.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Poisson-distributed count (Knuth's method; fine for small lambda).
  int Poisson(double lambda) {
    if (lambda <= 0.0) return 0;
    if (lambda > 30.0) {
      // Normal approximation for large lambda.
      int v = static_cast<int>(std::lround(Normal(lambda, std::sqrt(lambda))));
      return v < 0 ? 0 : v;
    }
    double l = std::exp(-lambda);
    int k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= Uniform();
    } while (p > l);
    return k - 1;
  }

  /// Log-normal sample: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma) {
    return std::exp(Normal(mu, sigma));
  }

  /// Sample an index from an (unnormalised) non-negative weight vector.
  /// Returns weights.size() - 1 on numeric fallthrough.
  size_t Categorical(const std::vector<double>& weights) {
    BSG_CHECK(!weights.empty(), "Categorical on empty weights");
    double total = 0.0;
    for (double w : weights) total += w;
    BSG_CHECK(total > 0.0, "Categorical with zero total weight");
    double x = Uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (x < acc) return i;
    }
    return weights.size() - 1;
  }

  /// Symmetric Dirichlet sample of dimension k with concentration alpha,
  /// via normalised Gamma(alpha, 1) draws (Marsaglia-Tsang).
  std::vector<double> Dirichlet(size_t k, double alpha) {
    std::vector<double> g(k);
    double total = 0.0;
    for (size_t i = 0; i < k; ++i) {
      g[i] = Gamma(alpha);
      total += g[i];
    }
    if (total <= 0.0) {
      for (auto& v : g) v = 1.0 / static_cast<double>(k);
      return g;
    }
    for (auto& v : g) v /= total;
    return g;
  }

  /// Gamma(shape, 1) sample (Marsaglia-Tsang; boost for shape < 1).
  double Gamma(double shape) {
    if (shape < 1.0) {
      double u = 0.0;
      while (u <= 1e-300) u = Uniform();
      return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
      double x = Normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      double u = Uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v;
      }
    }
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Derive an independent child generator (for per-component streams).
  Rng Split() { return Rng(NextU64() ^ 0xA5A5A5A5DEADBEEFULL); }

 private:
  uint64_t state_;
  bool has_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace bsg
