#include "core/inference.h"

#include <type_traits>
#include <utility>

#include "tensor/ops.h"
#include "util/parallel.h"

namespace bsg {

namespace {

/// Eq. 10 aggregation over relation r's block-diagonal operand, reading x
/// through the row map `x_rows` when given; with `rows`, only those rows
/// (the same sums).
Matrix Aggregate(const SubgraphBatch& batch, int r, const Matrix& x,
                 const std::vector<int>* x_rows,
                 const std::vector<int>* rows) {
  return SpmmValue(batch.rel_blocks[r], x, rows, x_rows);
}

MatrixF Aggregate(const SubgraphBatch& batch, int r, const MatrixF& x,
                  const std::vector<int>* x_rows,
                  const std::vector<int>* rows) {
  return SpmmF(batch.rel_blocks[r], batch.RelWeightsF32(r), x, rows, x_rows);
}

AffineWeights<MatrixF> Narrow(const AffineWeights<Matrix>& a) {
  return {MatrixF::FromDouble(a.w), MatrixF::FromDouble(a.b)};
}

}  // namespace

InferenceTables<MatrixF> Narrow(const InferenceTables<Matrix>& t) {
  InferenceTables<MatrixF> f;
  f.arch = t.arch;
  f.eq9 = MatrixF::FromDouble(t.eq9);
  f.gcn.resize(t.gcn.size());
  for (size_t r = 0; r < t.gcn.size(); ++r) {
    for (const AffineWeights<Matrix>& layer : t.gcn[r]) {
      f.gcn[r].push_back(Narrow(layer));
    }
  }
  f.sem_proj = Narrow(t.sem_proj);
  f.sem_q = MatrixF::FromDouble(t.sem_q);
  f.head = Narrow(t.head);
  return f;
}

template <class M>
Matrix InferenceForward(const InferenceTables<M>& t,
                        const SubgraphBatch& batch) {
  using Scalar = typename M::Scalar;
  const InferenceArch& arch = t.arch;
  const int R = arch.num_relations;
  const int L = arch.gnn_layers;
  const Scalar slope = static_cast<Scalar>(arch.leaky_slope);
  // Per-relation towers as parallel tasks: tower r writes only
  // per_relation[r], and the fusion below reduces in ascending relation
  // order on this thread, so the result is the same at any thread count.
  std::vector<M> per_relation(static_cast<size_t>(R));
  ParallelFor(0, R, 1, [&](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < static_cast<int>(r1); ++r) {
      const std::vector<int>& node_ids = batch.rel_node_ids[r];
      const std::vector<int>& centre_rows = batch.rel_center_rows[r];
      // The Eq. 9 rows of the batch's nodes are the table's rows node_ids,
      // read in place: layer 0 aggregates the table through that row map,
      // and Eq. 11 takes its layer-0 centre rows from the table at
      // node_ids[centre_rows[i]]. Later layers read the previous layer.
      std::vector<int> centre_ids(centre_rows.size());
      for (size_t i = 0; i < centre_rows.size(); ++i) {
        centre_ids[i] = node_ids[centre_rows[i]];
      }
      const M* in = &t.eq9;
      const std::vector<int>* in_map = &node_ids;
      const std::vector<int>* in_centres = &centre_ids;
      std::vector<M> center_layers;  // Eq. 11 parts, centre rows only
      center_layers.reserve(static_cast<size_t>(L) + 1);
      M cur;
      for (int l = 0; l < L; ++l) {
        if (arch.use_intermediate_concat) {
          center_layers.push_back(in->GatherRows(*in_centres));
        }
        const bool last = l + 1 == L;
        cur = Aggregate(batch, r, *in, in_map, last ? &centre_rows : nullptr)
                  .MatMulAddBiasLeakyRelu(t.gcn[r][l].w, t.gcn[r][l].b,
                                          slope);  // Eq. 10
        in = &cur;
        in_map = nullptr;
        in_centres = &centre_rows;
      }
      if (L == 0) cur = in->GatherRows(*in_centres);
      if (!arch.use_intermediate_concat) {
        per_relation[r] = std::move(cur);
        continue;
      }
      center_layers.push_back(std::move(cur));
      std::vector<const M*> parts;
      parts.reserve(center_layers.size());
      for (const M& part : center_layers) parts.push_back(&part);
      per_relation[r] = ConcatCols(parts);  // Eq. 11
    }
  });

  // Eq. 12-14, or the mean-pooling ablation. beta_r * H_r is added to the
  // running sum as Axpy, which rounds the product and then the sum, as
  // the autograd forward's Scale-then-Add does.
  M fused;
  if (arch.use_semantic_attention) {
    Matrix importance(1, R);
    for (int r = 0; r < R; ++r) {
      M s = per_relation[r].MatMulAddBias(t.sem_proj.w, t.sem_proj.b);
      s.TanhInPlace();
      importance(0, r) = s.MatMul(t.sem_q).Mean();  // Eq. 12
    }
    const Matrix beta = SoftmaxRowsValue(importance);  // Eq. 13
    fused = std::move(per_relation[0]);
    fused.Scale(static_cast<Scalar>(beta(0, 0)));
    for (int r = 1; r < R; ++r) {
      fused.Axpy(static_cast<Scalar>(beta(0, r)), per_relation[r]);  // Eq. 14
    }
  } else {
    fused = std::move(per_relation[0]);
    for (int r = 1; r < R; ++r) fused.Axpy(Scalar{1}, per_relation[r]);
    fused.Scale(static_cast<Scalar>(1.0 / static_cast<double>(R)));
  }
  M logits = fused.MatMulAddBias(t.head.w, t.head.b);  // Eq. 15
  if constexpr (std::is_same_v<M, Matrix>) {
    return logits;
  } else {
    return logits.ToDouble();
  }
}

template Matrix InferenceForward<Matrix>(const InferenceTables<Matrix>&,
                                         const SubgraphBatch&);
template Matrix InferenceForward<MatrixF>(const InferenceTables<MatrixF>&,
                                          const SubgraphBatch&);

}  // namespace bsg
