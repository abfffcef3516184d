// Mixed-precision serving: the f32 shadow's materialisation and the f32
// forward pass (Eq. 9-15 over MatrixF kernels, no autograd). The f64
// ScoreBatch in bsg4bot.cc stays the accuracy oracle; tests/test_f32_parity
// pins per-logit agreement and argmax identity between the two.
#include <cmath>
#include <utility>

#include "core/bsg4bot.h"
#include "util/parallel.h"

namespace bsg {

namespace {

LinearF32 ConvertLinear(const Linear& l) {
  return LinearF32{MatrixF::FromDouble(l.weight()->value),
                   MatrixF::FromDouble(l.bias()->value)};
}

}  // namespace

void Bsg4Bot::EnsureF32Shadow() {
  if (f32_ == nullptr) RefreshF32Shadow();
}

void Bsg4Bot::RefreshF32Shadow() {
  BSG_CHECK(inference_ready(),
            "f32 shadow without pre-classifier state "
            "(run Prepare()/Fit() or restore a checkpoint)");
  auto shadow = std::make_unique<Bsg4BotF32>();
  // The N x F f32 features only live while the table is built.
  const LinearF32 input = ConvertLinear(input_);
  shadow->eq9 = MatrixF::FromDouble(graph_.features)
                    .MatMulAddBias(input.w, input.b);  // Eq. 9
  shadow->eq9.LeakyReluInPlace(static_cast<float>(cfg_.leaky_slope));
  shadow->gcn.resize(gcn_.size());
  for (size_t r = 0; r < gcn_.size(); ++r) {
    shadow->gcn[r].reserve(gcn_[r].size());
    for (const Linear& layer : gcn_[r]) {
      shadow->gcn[r].push_back(ConvertLinear(layer));
    }
  }
  if (cfg_.use_semantic_attention) {
    shadow->sem_proj = ConvertLinear(fuse_.proj());
    shadow->sem_q = MatrixF::FromDouble(fuse_.q()->value);
  }
  shadow->head = ConvertLinear(head_);
  shadow->hidden_reps = MatrixF::FromDouble(pretrain_.hidden_reps);
  shadow->hidden_self_dots = RowSelfDotsF(shadow->hidden_reps);
  f32_ = std::move(shadow);
}

Matrix Bsg4Bot::ScoreBatchF32(const SubgraphBatch& batch) const {
  BSG_CHECK(f32_ != nullptr, "ScoreBatchF32 before EnsureF32Shadow()");
  const Bsg4BotF32& m = *f32_;
  const int R = graph_.num_relations();
  const float slope = static_cast<float>(cfg_.leaky_slope);
  // Mirror of the f64 ScoreBatch: per-relation towers as parallel tasks,
  // Eq. 9 rows gathered from the shadow's table, the last Eq. 10 layer on
  // the centre rows only, fusion reduced in ascending relation order on
  // this thread.
  const int L = cfg_.gnn_layers;
  std::vector<MatrixF> per_relation(static_cast<size_t>(R));
  ParallelFor(0, R, 1, [&](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < static_cast<int>(r1); ++r) {
      const std::vector<int>& centre_rows = batch.rel_center_rows[r];
      std::vector<MatrixF> center_layers;  // Eq. 11 parts, centre rows only
      center_layers.reserve(static_cast<size_t>(L) + 1);
      MatrixF cur = m.eq9.GatherRows(batch.rel_node_ids[r]);  // Eq. 9
      for (int l = 0; l < L; ++l) {
        if (cfg_.use_intermediate_concat) {
          center_layers.push_back(cur.GatherRows(centre_rows));
        }
        const bool last = l + 1 == L;
        cur = SpmmF(*batch.rel_adjs[r].fwd, batch.RelWeightsF32(r), cur,
                    last ? &centre_rows : nullptr)
                  .MatMulAddBias(m.gcn[r][l].w, m.gcn[r][l].b);
        cur.LeakyReluInPlace(slope);  // Eq. 10
      }
      if (L == 0) cur = cur.GatherRows(centre_rows);
      center_layers.push_back(std::move(cur));
      if (cfg_.use_intermediate_concat) {  // Eq. 11
        std::vector<const MatrixF*> parts;
        parts.reserve(center_layers.size());
        for (const MatrixF& part : center_layers) parts.push_back(&part);
        per_relation[r] = ConcatColsF(parts);
      } else {
        per_relation[r] = std::move(center_layers.back());
      }
    }
  });

  // Eq. 12-14 (or the mean-pooling ablation).
  MatrixF fused;
  if (cfg_.use_semantic_attention) {
    std::vector<float> importance(static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
      MatrixF s = per_relation[r].MatMulAddBias(m.sem_proj.w, m.sem_proj.b);
      s.TanhInPlace();
      importance[r] = s.MatMul(m.sem_q).Mean();  // Eq. 12
    }
    float mx = importance[0];
    for (int r = 1; r < R; ++r) mx = std::max(mx, importance[r]);
    std::vector<float> beta(static_cast<size_t>(R));
    float z = 0.0f;
    for (int r = 0; r < R; ++r) {
      beta[r] = std::exp(importance[r] - mx);
      z += beta[r];
    }
    fused = MatrixF(per_relation[0].rows(), per_relation[0].cols());
    for (int r = 0; r < R; ++r) {
      fused.Axpy(beta[r] / z, per_relation[r]);  // Eq. 13-14
    }
  } else {
    fused = per_relation[0];
    for (int r = 1; r < R; ++r) fused.Axpy(1.0f, per_relation[r]);
    fused.Scale(1.0f / static_cast<float>(R));
  }
  return fused.MatMulAddBias(m.head.w, m.head.b).ToDouble();  // Eq. 15
}

}  // namespace bsg
