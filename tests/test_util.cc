// Status/Result, RNG, string and timer utilities.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace bsg {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(s.ToString().find("bad k"), std::string::npos);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedCoverage) {
  Rng rng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanApproximatesLambda) {
  Rng rng(8);
  double total = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) total += rng.Poisson(4.5);
  EXPECT_NEAR(total / n, 4.5, 0.15);
}

TEST(Rng, PoissonLargeLambdaNormalApprox) {
  Rng rng(9);
  double total = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) total += rng.Poisson(60.0);
  EXPECT_NEAR(total / n, 60.0, 1.0);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(10);
  for (double alpha : {0.05, 0.5, 2.0}) {
    auto v = rng.Dirichlet(20, alpha);
    double total = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Rng, SmallAlphaDirichletIsPeaky) {
  Rng rng(11);
  double max_small = 0.0, max_large = 0.0;
  for (int rep = 0; rep < 50; ++rep) {
    auto s = rng.Dirichlet(20, 0.05);
    auto l = rng.Dirichlet(20, 2.0);
    max_small += *std::max_element(s.begin(), s.end());
    max_large += *std::max_element(l.begin(), l.end());
  }
  EXPECT_GT(max_small / 50, max_large / 50);  // concentration ordering
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(12);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1] * 2);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(99);
  Rng a = parent.Split();
  Rng b = parent.Split();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// The counter form (Rng::state / Skip / UniformThreshold): skipping n
// draws leaves the state n Uniform() calls leave, draw i from a state is
// Mix(state + (i + 1) * kGamma), the i-th value the stream returns, and the
// integer threshold test equals `Uniform() < p` draw for draw.
TEST(Rng, SkipMatchesDrawingAndCounterDrawIsTheIthDraw) {
  for (uint64_t n : {0ULL, 1ULL, 7ULL, 9ULL, 1000ULL, 274561ULL}) {
    Rng skipped(42 + n), drawn(42 + n);
    skipped.Skip(n);
    for (uint64_t i = 0; i < n; ++i) drawn.Uniform();
    EXPECT_EQ(skipped.state(), drawn.state()) << n;
    EXPECT_EQ(skipped.NextU64(), drawn.NextU64()) << n;
  }
  Rng stream(7);
  const uint64_t state = stream.state();
  for (uint64_t i = 0; i < 1003; ++i) {
    EXPECT_EQ(Rng::Mix(state + (i + 1) * Rng::kGamma), stream.NextU64()) << i;
  }
}

TEST(Rng, UniformThresholdEqualsTheUniformComparison) {
  EXPECT_EQ(Rng::UniformThreshold(0.0), 0ULL);
  EXPECT_EQ(Rng::UniformThreshold(0.25), 1ULL << 51);
  EXPECT_EQ(Rng::UniformThreshold(0.5), 1ULL << 52);
  EXPECT_EQ(Rng::UniformThreshold(1.0 - std::ldexp(1.0, -53)),
            (1ULL << 53) - 1);
  EXPECT_EQ(Rng::UniformThreshold(1.0), 1ULL << 53);
  // Thresholds that are not multiples of 2^-53 round up: a draw k * 2^-53
  // below p has k < ceil(p * 2^53).
  EXPECT_EQ(Rng::UniformThreshold(0.3),
            static_cast<uint64_t>(std::ceil(0.3 * 9007199254740992.0)));
  for (double p : {0.0, 0.25, 0.5, 0.3, 1.0 - std::ldexp(1.0, -53)}) {
    const uint64_t t = Rng::UniformThreshold(p);
    for (size_t n : {size_t{1}, size_t{7}, size_t{13}, size_t{1001}}) {
      Rng a(1234 + n), b(1234 + n);
      const uint64_t state = a.state();
      for (size_t i = 0; i < n; ++i) {
        const uint64_t z = Rng::Mix(state + (i + 1) * Rng::kGamma);
        const bool counter = (z >> 11) < t;
        EXPECT_EQ(counter, b.Uniform() < p) << "p=" << p << " i=" << i;
      }
    }
  }
  // The comparison at the boundary itself: a draw of exactly p is not < p.
  const uint64_t k = 3ULL << 50;  // p = 0.375 exactly
  EXPECT_FALSE(k < Rng::UniformThreshold(0.375));
  EXPECT_TRUE(k - 1 < Rng::UniformThreshold(0.375));
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
}

TEST(StringUtil, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringUtil, TablePrinterAlignsColumns) {
  TablePrinter t({"Model", "Acc"});
  t.AddRow({"GCN", "77.52"});
  t.AddRow({"BSG4Bot", "89.15"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| Model  "), std::string::npos);
  EXPECT_NE(out.find("| BSG4Bot"), std::string::npos);
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(FormatDuration(30.0), "30.00s");
  EXPECT_EQ(FormatDuration(262.0), "4min22.0s");
  EXPECT_EQ(FormatDuration(4 * 3600 + 52 * 60), "4h52min");
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), t.Seconds() * 1000.0 - 1e-9);
}

}  // namespace
}  // namespace bsg
