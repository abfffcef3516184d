// BatchStacker and MakeSubgraphBatch, the one batch-stacking path: both
// producers against the unfused oracle MakeSpMat(BlockDiagonal(...)
// .Normalized(kSym)) from tests/csr_oracle.h (bitwise-equal stacked CSRs,
// node ids and centre rows), the symmetry that lets bwd alias fwd, the
// fused Csr::StackSymNormalizedInto kernel against the same oracle on
// random blocks, storage recycling (carcass/CSR/f32 weight buffers), f32
// weight streams as exact casts of the f64 weights, and the zero-warm-
// allocation contract via a counting operator new.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"  // replaces operator new: exact alloc counts
#include "core/bsg4bot.h"
#include "core/subgraph_batch.h"
#include "csr_oracle.h"
#include "graph/csr.h"
#include "test_common.h"
#include "util/rng.h"

namespace bsg {
namespace {

using testing::BlockDiagonal;
using testing::SmallGraph;

Bsg4Bot& TrainedModel() {
  static Bsg4Bot* model = [] {
    Bsg4BotConfig cfg;
    cfg.pretrain.epochs = 8;
    cfg.subgraph.k = 10;
    cfg.hidden = 12;
    cfg.batch_size = 32;
    cfg.max_epochs = 2;
    cfg.min_epochs = 2;
    cfg.seed = 13;
    Bsg4Bot* m = new Bsg4Bot(SmallGraph(), cfg);
    m->Fit();
    return m;
  }();
  return *model;
}

// Subgraphs for a slice of the test split, owned by the caller.
std::vector<BiasedSubgraph> BuildSubgraphs(const std::vector<int>& targets) {
  std::vector<BiasedSubgraph> subs;
  subs.reserve(targets.size());
  for (int t : targets) subs.push_back(TrainedModel().AssembleSubgraph(t));
  return subs;
}

std::vector<const BiasedSubgraph*> Pointers(
    const std::vector<BiasedSubgraph>& subs) {
  std::vector<const BiasedSubgraph*> ptrs;
  ptrs.reserve(subs.size());
  for (const BiasedSubgraph& s : subs) ptrs.push_back(&s);
  return ptrs;
}

void ExpectCsrBitEqual(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.indptr(), b.indptr());
  ASSERT_EQ(a.indices(), b.indices());
  ASSERT_EQ(a.weights().size(), b.weights().size());
  // Bitwise, not ==: the normalisation weights must be the same doubles.
  for (size_t i = 0; i < a.weights().size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.weights()[i], &b.weights()[i], sizeof(double)),
              0)
        << "weight " << i;
  }
}

TEST(StackSymNormalizedInto, BitIdenticalToUnfusedPipelineRandomized) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Csr> blocks;
    const int num_blocks = 1 + static_cast<int>(rng.UniformInt(6));
    for (int b = 0; b < num_blocks; ++b) {
      const int n = 1 + static_cast<int>(rng.UniformInt(20));
      std::vector<std::pair<int, int>> edges;
      const int m = static_cast<int>(rng.UniformInt(60));
      for (int e = 0; e < m; ++e) {
        edges.emplace_back(static_cast<int>(rng.UniformInt(n)),
                           static_cast<int>(rng.UniformInt(n)));
      }
      // Symmetric blocks with occasional pre-existing self loops — the
      // BiasedSubgraph shape.
      blocks.push_back(Csr::FromEdgesSymmetric(n, edges));
    }
    std::vector<const Csr*> ptrs;
    for (const Csr& b : blocks) ptrs.push_back(&b);

    Csr oracle = BlockDiagonal(ptrs).Normalized(CsrNorm::kSym);
    Csr fused;
    std::vector<double> inv_sqrt_deg;
    Csr::StackSymNormalizedInto(ptrs, &fused, &inv_sqrt_deg);
    ExpectCsrBitEqual(oracle, fused);
    ASSERT_TRUE(fused.Validate().ok());

    // Reuse the same output carcass for a second, different stacking — the
    // pooled path — and it must still match its own oracle exactly.
    std::vector<const Csr*> reversed(ptrs.rbegin(), ptrs.rend());
    Csr oracle2 = BlockDiagonal(reversed).Normalized(CsrNorm::kSym);
    Csr::StackSymNormalizedInto(reversed, &fused, &inv_sqrt_deg);
    ExpectCsrBitEqual(oracle2, fused);
  }
}

// The unfused stacking of relation r: what MakeSubgraphBatch built before
// it became the fused pass, with MakeSpMat's materialised transpose.
SpMat UnfusedStack(const std::vector<const BiasedSubgraph*>& subs, int r) {
  std::vector<const Csr*> blocks;
  for (const BiasedSubgraph* s : subs) {
    blocks.push_back(&s->per_relation[r].adj);
  }
  return MakeSpMat(BlockDiagonal(blocks).Normalized(CsrNorm::kSym));
}

TEST(BatchStacker, BothProducersMatchTheUnfusedOracleBitwise) {
  const std::vector<int> targets(SmallGraph().test_idx.begin(),
                                 SmallGraph().test_idx.begin() + 12);
  std::vector<BiasedSubgraph> subs = BuildSubgraphs(targets);
  std::vector<const BiasedSubgraph*> ptrs = Pointers(subs);
  const int R = SmallGraph().num_relations();

  BatchStacker stacker(R);
  const SubgraphBatch made = MakeSubgraphBatch(ptrs, targets, R);
  const SubgraphBatch stacked = stacker.Stack(ptrs, targets);
  for (const SubgraphBatch* batch : {&made, &stacked}) {
    EXPECT_EQ(batch->centers, targets);
    ASSERT_EQ(batch->rel_adjs.size(), static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
      const SpMat oracle = UnfusedStack(ptrs, r);
      ExpectCsrBitEqual(*oracle.fwd, *batch->rel_adjs[r].fwd);
      // The oracle's transpose is what the backward read before bwd
      // aliased fwd.
      ExpectCsrBitEqual(*oracle.bwd, *batch->rel_adjs[r].fwd);
      EXPECT_EQ(batch->rel_adjs[r].bwd.get(), batch->rel_adjs[r].fwd.get());
      std::vector<int> node_ids, center_rows;
      for (const BiasedSubgraph* s : ptrs) {
        const std::vector<int>& nodes = s->per_relation[r].nodes;
        center_rows.push_back(static_cast<int>(node_ids.size()));
        node_ids.insert(node_ids.end(), nodes.begin(), nodes.end());
      }
      EXPECT_EQ(batch->rel_node_ids[r], node_ids);
      EXPECT_EQ(batch->rel_center_rows[r], center_rows);
    }
  }
}

// The precondition of the bwd == fwd aliasing: every stacked relation
// equals its own transpose bit for bit.
void ExpectSymmetricAliasedBatch(const SubgraphBatch& batch) {
  for (const SpMat& adj : batch.rel_adjs) {
    ExpectCsrBitEqual(adj.fwd->Transposed(), *adj.fwd);
    EXPECT_EQ(adj.bwd.get(), adj.fwd.get());
  }
}

TEST(BatchStacker, StackedAdjacenciesAreSymmetricForTrainingAndServing) {
  const int R = SmallGraph().num_relations();
  BatchStacker stacker(R);
  // Training: every centre of BuildAllSubgraphs on SmallGraph, in
  // batch-width chunks.
  const std::vector<BiasedSubgraph>& all = TrainedModel().subgraphs();
  ASSERT_EQ(all.size(), static_cast<size_t>(SmallGraph().num_nodes));
  const size_t width = 32;
  for (size_t b = 0; b < all.size(); b += width) {
    std::vector<int> centers;
    std::vector<const BiasedSubgraph*> ptrs;
    for (size_t c = b; c < std::min(all.size(), b + width); ++c) {
      centers.push_back(static_cast<int>(c));
      ptrs.push_back(&all[c]);
    }
    ExpectSymmetricAliasedBatch(MakeSubgraphBatch(all, centers, R));
    SubgraphBatch stacked = stacker.Stack(ptrs, centers);
    ExpectSymmetricAliasedBatch(stacked);
    stacker.Recycle(std::move(stacked));
  }
  // Serving: AssembleSubgraph outputs for a sample of accounts.
  std::vector<int> targets;
  for (int t = 0; t < SmallGraph().num_nodes; t += 7) targets.push_back(t);
  std::vector<BiasedSubgraph> subs = BuildSubgraphs(targets);
  ExpectSymmetricAliasedBatch(MakeSubgraphBatch(Pointers(subs), targets, R));
  ExpectSymmetricAliasedBatch(stacker.Stack(Pointers(subs), targets));
}

TEST(BatchStacker, F32WeightStreamsAreExactCasts) {
  const std::vector<int> targets(SmallGraph().test_idx.begin(),
                                 SmallGraph().test_idx.begin() + 6);
  std::vector<BiasedSubgraph> subs = BuildSubgraphs(targets);
  const int R = SmallGraph().num_relations();

  BatchStacker stacker(R, /*with_f32_weights=*/true);
  SubgraphBatch batch = stacker.Stack(Pointers(subs), targets);
  for (int r = 0; r < R; ++r) {
    const std::vector<float>* w32 = batch.RelWeightsF32(r);
    ASSERT_NE(w32, nullptr);
    const std::vector<double>& w64 = batch.rel_adjs[r].fwd->weights();
    ASSERT_EQ(w32->size(), w64.size());
    for (size_t e = 0; e < w64.size(); ++e) {
      EXPECT_EQ((*w32)[e], static_cast<float>(w64[e])) << "edge " << e;
    }
  }
  // Without f32 weights the accessor reports their absence.
  BatchStacker plain(R);
  SubgraphBatch no_w = plain.Stack(Pointers(subs), targets);
  EXPECT_EQ(no_w.RelWeightsF32(0), nullptr);
}

TEST(BatchStacker, RecyclingReusesCarcassesCsrsAndWeightBuffers) {
  const std::vector<int> targets(SmallGraph().test_idx.begin(),
                                 SmallGraph().test_idx.begin() + 8);
  std::vector<BiasedSubgraph> subs = BuildSubgraphs(targets);
  std::vector<const BiasedSubgraph*> ptrs = Pointers(subs);
  const int R = SmallGraph().num_relations();

  BatchStacker stacker(R, /*with_f32_weights=*/true);
  SubgraphBatch first = stacker.Stack(ptrs, targets);
  BatchStackerStats cold = stacker.Stats();
  EXPECT_EQ(cold.batches_stacked, 1u);
  EXPECT_EQ(cold.carcass_reuses, 0u);
  EXPECT_EQ(cold.csr_reuses, 0u);

  stacker.Recycle(std::move(first));
  SubgraphBatch second = stacker.Stack(ptrs, targets);
  BatchStackerStats warm = stacker.Stats();
  EXPECT_EQ(warm.batches_stacked, 2u);
  EXPECT_EQ(warm.carcass_reuses, 1u);
  EXPECT_EQ(warm.csr_reuses, static_cast<uint64_t>(R));
  EXPECT_EQ(warm.weights_f32_reuses, static_cast<uint64_t>(R));

  // A CSR still referenced outside the batch must NOT be reclaimed into the
  // pool (it would be rebuilt under the reader).
  std::shared_ptr<const Csr> leaked = second.rel_adjs[0].fwd;
  stacker.Recycle(std::move(second));
  SubgraphBatch third = stacker.Stack(ptrs, targets);
  EXPECT_NE(third.rel_adjs[0].fwd.get(), leaked.get());
  ASSERT_TRUE(leaked->Validate().ok());  // untouched by the rebuild
}

TEST(BatchStacker, WarmStackRecycleLoopPerformsZeroAllocations) {
  const std::vector<int> targets(SmallGraph().test_idx.begin(),
                                 SmallGraph().test_idx.begin() + 8);
  std::vector<BiasedSubgraph> subs = BuildSubgraphs(targets);
  std::vector<const BiasedSubgraph*> ptrs = Pointers(subs);
  const int R = SmallGraph().num_relations();

  BatchStacker stacker(R, /*with_f32_weights=*/true);
  // Warm-up: size every carcass vector, CSR array and weight buffer.
  for (int i = 0; i < 3; ++i) {
    stacker.Recycle(stacker.Stack(ptrs, targets));
  }
  const uint64_t before = t_allocs;
  for (int i = 0; i < 10; ++i) {
    stacker.Recycle(stacker.Stack(ptrs, targets));
  }
  const uint64_t allocs = t_allocs - before;
  // Zero heap allocations per warm batch: stacking runs entirely on
  // recycled storage.
  EXPECT_EQ(allocs, 0u);
}

// PredictLogits stacks each chunk through the model's held stacker: its
// logits are, chunk for chunk, those of a one-shot MakeSubgraphBatch, on
// the first call and on a warm one.
TEST(PredictLogits, HeldStackerMatchesOneShotBatchesPerChunk) {
  Bsg4Bot& model = TrainedModel();
  const std::vector<int>& centres = SmallGraph().test_idx;
  const size_t chunk = static_cast<size_t>(model.config().batch_size);
  ASSERT_GT(centres.size(), 2 * chunk);  // several chunks
  for (int pass = 0; pass < 2; ++pass) {
    const Matrix got = model.PredictLogits(centres);
    ASSERT_EQ(got.rows(), static_cast<int>(centres.size()));
    for (size_t b = 0; b < centres.size(); b += chunk) {
      const std::vector<int> ids(
          centres.begin() + b,
          centres.begin() + std::min(centres.size(), b + chunk));
      const Matrix want = model.ScoreBatch(MakeSubgraphBatch(
          model.subgraphs(), ids, SmallGraph().num_relations()));
      for (size_t i = 0; i < ids.size(); ++i) {
        for (int c = 0; c < 2; ++c) {
          const double g = got(static_cast<int>(b + i), c);
          const double w = want(static_cast<int>(i), c);
          EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
              << "pass " << pass << " centre " << ids[i] << " logit " << c;
        }
      }
    }
  }
}

// A warm PredictLogits rebuilds its chunks inside the stacker's recycled
// storage, so it allocates less than the first call on a fresh model.
TEST(PredictLogits, WarmCallAllocatesLessThanTheColdOne) {
  testing::ThreadGuard guard;
  SetNumThreads(1);  // every allocation on the counted thread
  Bsg4Bot model(SmallGraph(), TrainedModel().config());
  model.Prepare();
  const std::vector<int>& centres = SmallGraph().test_idx;
  uint64_t before = t_allocs;
  const Matrix cold = model.PredictLogits(centres);
  const uint64_t cold_allocs = t_allocs - before;
  before = t_allocs;
  const Matrix warm = model.PredictLogits(centres);
  const uint64_t warm_allocs = t_allocs - before;
  EXPECT_LT(warm_allocs, cold_allocs);
  EXPECT_TRUE(testing::SameBits(cold, warm));
}

}  // namespace
}  // namespace bsg
