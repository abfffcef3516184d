// Pinned bits: a golden digest of one small end-to-end run.
//
// Every other bit-identity check in the suite compares two computations of
// the same build (a kernel against its oracle, one thread count against
// another). None of them fails when a change moves a bit in the code and
// in its oracle alike, or in a stage that no oracle covers. This test
// hashes the raw bits of each stage of the serve smoke's pipeline (1,000
// twibot20 users, 4 epochs, serve_cli's training settings) and compares
// each hash with a checked-in constant:
//
//   - the node features (datagen + the feature pipeline),
//   - every stored subgraph (pretraining + Algorithm 1),
//   - the training loss history (Fit),
//   - the f64 test-split logits (PredictLogits),
//   - the f32 logits the serving engine returns for the test split.
//
// The constants are pinned to this toolchain and libm (x86-64, GCC, glibc):
// exp, log, tanh and sqrt come from libm, and another libm may round them
// differently. A change that moves bits on purpose updates the constant
// and says why in CHANGES.md.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/bsg4bot.h"
#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "serve/engine.h"

namespace bsg {
namespace {

// 64-bit FNV-1a over raw bytes.
class Digest {
 public:
  void Bytes(const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  template <class T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  template <class T>
  void Vector(const std::vector<T>& v) {
    Value(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
  void Mat(const Matrix& m) {
    Value(m.rows());
    Value(m.cols());
    if (m.size() > 0) Bytes(m.data(), m.size() * sizeof(double));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

TEST(GoldenDigest, ServeSmokePipelineBitsArePinned) {
  DatasetConfig data_cfg = Twibot20Sim();
  data_cfg.num_users = 1000;
  data_cfg.tweets_per_user = 12;
  const HeteroGraph graph = BuildBenchmarkGraph(data_cfg);

  Bsg4BotConfig cfg;
  cfg.subgraph.k = 16;
  cfg.hidden = 16;
  cfg.pretrain.epochs = 20;
  cfg.max_epochs = 4;
  cfg.min_epochs = 4;
  cfg.seed = 17;
  Bsg4Bot model(graph, cfg);
  const TrainResult res = model.Fit();

  Digest features;
  features.Mat(graph.features);

  Digest subgraphs;
  for (const BiasedSubgraph& sub : model.subgraphs()) {
    subgraphs.Value(sub.center);
    for (const RelationSubgraph& rel : sub.per_relation) {
      subgraphs.Vector(rel.nodes);
      subgraphs.Value(rel.adj.num_nodes());
      subgraphs.Vector(rel.adj.indptr());
      subgraphs.Vector(rel.adj.indices());
      subgraphs.Vector(rel.adj.weights());
    }
  }

  Digest losses;
  losses.Vector(res.loss_history);

  Digest logits_f64;
  logits_f64.Mat(model.PredictLogits(graph.test_idx));

  EngineConfig ec;
  ec.precision = EngineConfig::Precision::kF32;
  DetectionEngine engine(&model, ec);
  Digest logits_f32;
  for (const Score& s : engine.ScoreBatch(graph.test_idx)) {
    logits_f32.Value(s.target);
    logits_f32.Value(s.logit_human);
    logits_f32.Value(s.logit_bot);
  }

  // Printed so a deliberate change can copy the new constants.
  std::printf("features   0x%016llX\nsubgraphs  0x%016llX\n"
              "losses     0x%016llX\nlogits f64 0x%016llX\n"
              "logits f32 0x%016llX\n",
              static_cast<unsigned long long>(features.value()),
              static_cast<unsigned long long>(subgraphs.value()),
              static_cast<unsigned long long>(losses.value()),
              static_cast<unsigned long long>(logits_f64.value()),
              static_cast<unsigned long long>(logits_f32.value()));
  EXPECT_EQ(features.value(), 0xD38B021EFA9D51F7ULL) << "features moved";
  EXPECT_EQ(subgraphs.value(), 0x14ED49357A9838DBULL) << "subgraphs moved";
  EXPECT_EQ(losses.value(), 0x9696140C6F9A429AULL) << "losses moved";
  EXPECT_EQ(logits_f64.value(), 0x75816C7A43A56D31ULL) << "f64 logits moved";
  EXPECT_EQ(logits_f32.value(), 0xD8DCBA2558EEC387ULL) << "f32 logits moved";
}

}  // namespace
}  // namespace bsg
