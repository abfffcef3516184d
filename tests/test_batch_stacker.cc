// BatchStacker and MakeSubgraphBatch, the one batch-building path: both
// producers' block lists point at the centres' own stored subgraphs, and
// scoring through them equals the scalar loop over the unfused stacked
// oracle BlockDiagonal(...).Normalized(kSym) from tests/csr_oracle.h
// (with node ids and centre rows to match); every block is symmetric, the
// precondition of the backward reading the forward operand; the fused
// stacking oracle agrees with the unfused one on random blocks; storage
// recycling (carcasses and f32 weight buffers); f32 weight streams as exact
// casts of the stacked f64 weights; and the zero-warm-allocation contract
// via a counting operator new.
#include <algorithm>
#include <cmath>
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
using testing::SameBits;
using testing::SmallGraph;
using testing::StackedSymNormalized;

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

TEST(StackingOracles, FusedAndUnfusedAgreeRandomized) {
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
    testing::StackSymNormalizedInto(ptrs, &fused, &inv_sqrt_deg);
    ExpectCsrBitEqual(oracle, fused);
    ASSERT_TRUE(fused.Validate().ok());

    // Reuse the same output carcass for a second, different stacking, and
    // it must still match its own oracle exactly.
    std::vector<const Csr*> reversed(ptrs.rbegin(), ptrs.rend());
    Csr oracle2 = BlockDiagonal(reversed).Normalized(CsrNorm::kSym);
    testing::StackSymNormalizedInto(reversed, &fused, &inv_sqrt_deg);
    ExpectCsrBitEqual(oracle2, fused);
  }
}

// The unfused stacking of relation r over the subgraphs themselves.
Csr UnfusedStack(const std::vector<const BiasedSubgraph*>& subs, int r) {
  std::vector<const Csr*> blocks;
  for (const BiasedSubgraph* s : subs) {
    blocks.push_back(&s->per_relation[r].adj);
  }
  return BlockDiagonal(blocks).Normalized(CsrNorm::kSym);
}

// out = A x over the stacked oracle, each row from +0.0 in CSR order.
Matrix ScalarSpmm(const Csr& a, const Matrix& x) {
  Matrix out(a.num_nodes(), x.cols());
  for (int u = 0; u < a.num_nodes(); ++u) {
    const int* nb = a.NeighborsBegin(u);
    const double* w = a.WeightsBegin(u);
    for (int j = 0; j < a.Degree(u); ++j) {
      for (int c = 0; c < x.cols(); ++c) out(u, c) += w[j] * x(nb[j], c);
    }
  }
  return out;
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
  Rng rng(8);
  for (const SubgraphBatch* batch : {&made, &stacked}) {
    EXPECT_EQ(batch->centers, targets);
    ASSERT_EQ(batch->rel_blocks.size(), static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
      const SymBlocks& op = batch->rel_blocks[r];
      // The blocks are the stored subgraphs, read in place.
      ASSERT_EQ(op.blocks.size(), ptrs.size());
      std::vector<int> node_ids, center_rows;
      for (size_t i = 0; i < ptrs.size(); ++i) {
        const RelationSubgraph& rel = ptrs[i]->per_relation[r];
        EXPECT_EQ(op.blocks[i].adj, &rel.adj);
        EXPECT_EQ(op.blocks[i].inv_sqrt_degree, &rel.inv_sqrt_degree);
        EXPECT_EQ(op.offsets[i], static_cast<int>(node_ids.size()));
        center_rows.push_back(static_cast<int>(node_ids.size()));
        node_ids.insert(node_ids.end(), rel.nodes.begin(), rel.nodes.end());
      }
      EXPECT_EQ(op.rows(), static_cast<int>(node_ids.size()));
      EXPECT_EQ(batch->rel_node_ids[r], node_ids);
      EXPECT_EQ(batch->rel_center_rows[r], center_rows);
      // Scoring through them is the stacked, normalised matrix's product.
      const Matrix x = Matrix::RandomNormal(op.rows(), 5, 1.0, &rng);
      EXPECT_TRUE(SameBits(SpmmValue(op, x),
                           ScalarSpmm(UnfusedStack(ptrs, r), x)));
    }
  }
}

// The precondition of the backward reading the forward operand: every
// block of every batch equals its own transpose. And each block's stored
// d^-1/2 are those of the stacked oracle's rows: 1 / sqrt(row length).
void ExpectSymmetricBlocks(const SubgraphBatch& batch) {
  for (const SymBlocks& op : batch.rel_blocks) {
    const Csr stacked = StackedSymNormalized(op);
    for (size_t b = 0; b < op.blocks.size(); ++b) {
      const Csr& adj = *op.blocks[b].adj;
      ExpectCsrBitEqual(adj.Transposed(), adj);
      for (int u = 0; u < adj.num_nodes(); ++u) {
        const int d = stacked.Degree(op.offsets[b] + u);
        EXPECT_TRUE(SameBits((*op.blocks[b].inv_sqrt_degree)[u],
                             1.0 / std::sqrt(static_cast<double>(d))));
      }
    }
  }
}

TEST(BatchStacker, BlocksAreSymmetricForTrainingAndServing) {
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
    ExpectSymmetricBlocks(MakeSubgraphBatch(all, centers, R));
    SubgraphBatch stacked = stacker.Stack(ptrs, centers);
    ExpectSymmetricBlocks(stacked);
    stacker.Recycle(std::move(stacked));
  }
  // Serving: AssembleSubgraph outputs for a sample of accounts.
  std::vector<int> targets;
  for (int t = 0; t < SmallGraph().num_nodes; t += 7) targets.push_back(t);
  std::vector<BiasedSubgraph> subs = BuildSubgraphs(targets);
  ExpectSymmetricBlocks(MakeSubgraphBatch(Pointers(subs), targets, R));
  ExpectSymmetricBlocks(stacker.Stack(Pointers(subs), targets));
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
    // Per block: each stored edge's stacked weight in CSR order, then each
    // row's self-loop weight, cast to float.
    const Csr w64 = UnfusedStack(Pointers(subs), r);
    const auto stacked_weight = [&](int u, int v) {
      const int* nb = w64.NeighborsBegin(u);
      const int j = static_cast<int>(
          std::lower_bound(nb, w64.NeighborsEnd(u), v) - nb);
      EXPECT_EQ(nb[j], v);
      return w64.WeightsBegin(u)[j];
    };
    std::vector<float> want;
    const SymBlocks& op = batch.rel_blocks[r];
    for (size_t b = 0; b < op.blocks.size(); ++b) {
      const Csr& g = *op.blocks[b].adj;
      const int off = op.offsets[b];
      for (int u = 0; u < g.num_nodes(); ++u) {
        for (const int* p = g.NeighborsBegin(u); p != g.NeighborsEnd(u); ++p) {
          want.push_back(static_cast<float>(stacked_weight(off + u, off + *p)));
        }
      }
      for (int u = 0; u < g.num_nodes(); ++u) {
        want.push_back(static_cast<float>(stacked_weight(off + u, off + u)));
      }
    }
    ASSERT_EQ(w32->size(), want.size());
    EXPECT_EQ(std::memcmp(w32->data(), want.data(),
                          want.size() * sizeof(float)),
              0);
  }
  // Without f32 weights the accessor reports their absence.
  BatchStacker plain(R);
  SubgraphBatch no_w = plain.Stack(Pointers(subs), targets);
  EXPECT_EQ(no_w.RelWeightsF32(0), nullptr);
}

TEST(BatchStacker, RecyclingReusesCarcassesAndWeightBuffers) {
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
  EXPECT_EQ(cold.weights_f32_reuses, 0u);

  stacker.Recycle(std::move(first));
  SubgraphBatch second = stacker.Stack(ptrs, targets);
  BatchStackerStats warm = stacker.Stats();
  EXPECT_EQ(warm.batches_stacked, 2u);
  EXPECT_EQ(warm.carcass_reuses, 1u);
  EXPECT_EQ(warm.weights_f32_reuses, static_cast<uint64_t>(R));

  // A weight buffer still referenced outside the batch must NOT be
  // reclaimed into the pool (it would be rewritten under the reader).
  std::shared_ptr<const std::vector<float>> leaked =
      second.rel_weights_f32[0];
  const std::vector<float> before = *leaked;
  stacker.Recycle(std::move(second));
  const std::vector<int> others(SmallGraph().test_idx.begin() + 8,
                                SmallGraph().test_idx.begin() + 16);
  std::vector<BiasedSubgraph> other_subs = BuildSubgraphs(others);
  SubgraphBatch third = stacker.Stack(Pointers(other_subs), others);
  EXPECT_NE(third.rel_weights_f32[0].get(), leaked.get());
  EXPECT_EQ(*leaked, before);  // untouched by the rebuild
}

TEST(BatchStacker, WarmStackRecycleLoopPerformsZeroAllocations) {
  const std::vector<int> targets(SmallGraph().test_idx.begin(),
                                 SmallGraph().test_idx.begin() + 8);
  std::vector<BiasedSubgraph> subs = BuildSubgraphs(targets);
  std::vector<const BiasedSubgraph*> ptrs = Pointers(subs);
  const int R = SmallGraph().num_relations();

  BatchStacker stacker(R, /*with_f32_weights=*/true);
  // Warm-up: size every carcass vector and weight buffer.
  for (int i = 0; i < 3; ++i) {
    stacker.Recycle(stacker.Stack(ptrs, targets));
  }
  const uint64_t before = t_allocs;
  for (int i = 0; i < 10; ++i) {
    stacker.Recycle(stacker.Stack(ptrs, targets));
  }
  const uint64_t allocs = t_allocs - before;
  // Zero heap allocations per warm batch: batches are built entirely on
  // recycled storage.
  EXPECT_EQ(allocs, 0u);
}

// PredictLogits builds each chunk through the model's held stacker: its
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
