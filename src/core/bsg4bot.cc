#include "core/bsg4bot.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "tensor/optim.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace bsg {

Bsg4Bot::Bsg4Bot(const HeteroGraph& graph, Bsg4BotConfig cfg)
    : graph_(graph),
      cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      predict_stacker_(graph.num_relations()) {
  BSG_CHECK(graph_.num_relations() > 0, "graph has no relations");
  BuildNetwork();
  RebuildF64Tables();
}

void Bsg4Bot::RebuildF64Tables() {
  const auto affine = [](const Linear& l) {
    return AffineWeights<Matrix>{l.weight()->value, l.bias()->value};
  };
  InferenceTables<Matrix> t;
  t.arch = InferenceArch{graph_.num_relations(), cfg_.gnn_layers,
                         cfg_.use_intermediate_concat,
                         cfg_.use_semantic_attention, cfg_.leaky_slope};
  // Eq. 9. The GEMM computes each row on its own, so a table row is
  // bit-identical to computing it per batch.
  t.eq9 = graph_.features.MatMulAddBiasLeakyRelu(
      input_.weight()->value, input_.bias()->value, cfg_.leaky_slope);
  for (const std::vector<Linear>& layers : gcn_) {
    t.gcn.emplace_back();
    for (const Linear& layer : layers) t.gcn.back().push_back(affine(layer));
  }
  if (cfg_.use_semantic_attention) {
    t.sem_proj = affine(fuse_.proj());
    t.sem_q = fuse_.q()->value;
  }
  t.head = affine(head_);
  f64_ = std::move(t);
}

void Bsg4Bot::RefreshInferenceTables() {
  RebuildF64Tables();
  if (f32_ != nullptr) {
    f32_ = std::make_unique<InferenceTables<MatrixF>>(Narrow(f64_));
  }
}

void Bsg4Bot::BuildNetwork() {
  const int h = cfg_.hidden;
  input_ = Linear(graph_.feature_dim(), h, &store_, &rng_, "bsg.in");
  gcn_.resize(graph_.num_relations());
  for (int r = 0; r < graph_.num_relations(); ++r) {
    for (int l = 0; l < cfg_.gnn_layers; ++l) {
      gcn_[r].emplace_back(h, h, &store_, &rng_,
                           "bsg.rel" + std::to_string(r) + ".l" +
                               std::to_string(l));
    }
  }
  // Width of the per-relation final representation (Eq. 11).
  int final_dim = cfg_.use_intermediate_concat ? (cfg_.gnn_layers + 1) * h : h;
  if (cfg_.use_semantic_attention) {
    fuse_ = SemanticAttention(final_dim, h, &store_, &rng_, "bsg.sem");
  }
  head_ = Linear(final_dim, 2, &store_, &rng_, "bsg.head");
}

void Bsg4Bot::Prepare() {
  if (prepared_) return;
  WallTimer timer;
  if (!pretrain_restored_) {
    // A checkpoint restore supplies the pre-classifier state directly; the
    // subgraphs built from it below are then bit-identical to the saving
    // model's (BuildAllSubgraphs is deterministic in its inputs).
    cfg_.pretrain.seed = cfg_.seed ^ 0xAB54A98CEB1F0AD2ULL;
    pretrain_ = PretrainClassifier(graph_, cfg_.pretrain);
    hidden_self_dots_ = RowSelfDots(pretrain_.hidden_reps);
  }
  subgraphs_ = BuildAllSubgraphs(graph_, pretrain_.hidden_reps, cfg_.subgraph,
                                 &hidden_self_dots_);
  prepare_seconds_ = timer.Seconds();
  prepared_ = true;
  if (cfg_.verbose) {
    BSG_LOG_INFO("prepare: pre-classifier acc %.4f f1 %.4f, %zu subgraphs, %.2fs",
                 pretrain_.fit.accuracy, pretrain_.fit.f1, subgraphs_.size(),
                 prepare_seconds_);
  }
}

Tensor Bsg4Bot::ForwardBatch(const SubgraphBatch& batch) {
  const int R = graph_.num_relations();
  const int d = graph_.feature_dim();
  // The Eq. 9 input dropout is drawn in counter form (ops::CounterDropout):
  // tower r's mask takes the draws after the earlier towers'
  // |rel_node_ids| x feature_dim, so each tower draws its own mask while it
  // gathers, on whichever thread runs it, and rng_ skips past all of them
  // before the towers start. The stream is consumed exactly as a serial
  // mask loop over the towers in relation order, then the post-attention
  // Dropout below, would consume it: bit-identical at any thread count, and
  // to the reference forward's MakeDropoutMask draws.
  std::vector<ops::CounterDropout> input_dropout(R);
  if (cfg_.dropout > 0.0) {
    uint64_t drawn = 0;
    for (int r = 0; r < R; ++r) {
      input_dropout[r] = {cfg_.dropout, rng_.state(), drawn};
      drawn += batch.rel_node_ids[r].size() * static_cast<uint64_t>(d);
    }
    rng_.Skip(drawn);
  }
  // Per-relation GNN towers as parallel tasks: tower r writes only
  // per_relation[r], and the fusion below reduces in ascending relation
  // order, so the result is deterministic. Ops inside a tower still call
  // ParallelFor; nested regions degrade to serial inline on pool workers.
  // Eq. 9 (gather, dropout, affine, LeakyReLU) and each Eq. 10 affine +
  // LeakyReLU are one autograd node each. As in ScoreBatch, the last
  // Eq. 10 layer runs on the centre rows only, through the row-restricted
  // SpMM. The all-rows layer would give every other row an exact +0
  // gradient, and the centre rows ascend, so the loss and every gradient
  // are bit-identical to the all-rows forward.
  const int L = cfg_.gnn_layers;
  const double slope = cfg_.leaky_slope;
  std::vector<Tensor> per_relation(R);
  ParallelFor(0, R, 1, [&](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < static_cast<int>(r1); ++r) {
      const std::vector<int>& centre_rows = batch.rel_center_rows[r];
      Tensor h = ops::GatherDropoutLinearLeakyRelu(
          graph_.features, batch.rel_node_ids[r], input_dropout[r],
          input_.weight(), input_.bias(), slope);  // Eq. 9

      std::vector<Tensor> layer_outputs{h};
      Tensor cur = h;
      for (int l = 0; l < L; ++l) {
        Tensor agg = l + 1 == L
                         ? ops::SpMM(batch.rel_blocks[r], cur, centre_rows)
                         : ops::SpMM(batch.rel_blocks[r], cur);
        cur = ops::LinearLeakyRelu(agg, gcn_[r][l].weight(),
                                   gcn_[r][l].bias(), slope);  // Eq. 10
        layer_outputs.push_back(cur);
      }
      // Eq. 11: COMBINE — the centre rows of each layer, concatenated. The
      // last layer's output holds only those rows already.
      Tensor last = L > 0 ? cur : ops::GatherRows(h, centre_rows);
      if (cfg_.use_intermediate_concat) {
        std::vector<Tensor> center_layers;
        center_layers.reserve(layer_outputs.size());
        for (int l = 0; l < L; ++l) {
          center_layers.push_back(
              ops::GatherRows(layer_outputs[l], centre_rows));
        }
        center_layers.push_back(last);
        per_relation[r] = ops::ConcatCols(center_layers);
      } else {
        per_relation[r] = last;
      }
    }
  });
  // Eq. 12-14 (or the mean-pooling ablation).
  Tensor fused = cfg_.use_semantic_attention ? fuse_.Forward(per_relation)
                                             : MeanPoolRelations(per_relation);
  fused = ops::Dropout(fused, cfg_.dropout, /*training=*/true, &rng_);
  return head_.Forward(fused);  // Eq. 15
}

Matrix Bsg4Bot::ScoreBatch(const SubgraphBatch& batch) const {
  return InferenceForward(f64_, batch);
}

void Bsg4Bot::EnsureF32Shadow() {
  if (f32_ == nullptr) {
    f32_ = std::make_unique<InferenceTables<MatrixF>>(Narrow(f64_));
  }
}

Matrix Bsg4Bot::ScoreBatchF32(const SubgraphBatch& batch) const {
  BSG_CHECK(f32_ != nullptr, "ScoreBatchF32 before EnsureF32Shadow()");
  return InferenceForward(*f32_, batch);
}

void Bsg4Bot::EnsureBatchComposition() {
  if (!train_batch_centers_.empty()) return;
  std::vector<int> train_nodes = graph_.train_idx;
  rng_.Shuffle(&train_nodes);
  for (size_t b = 0; b < train_nodes.size();
       b += static_cast<size_t>(cfg_.batch_size)) {
    train_batch_centers_.emplace_back(
        train_nodes.begin() + b,
        train_nodes.begin() +
            std::min(train_nodes.size(),
                     b + static_cast<size_t>(cfg_.batch_size)));
  }
  for (size_t b = 0; b < graph_.val_idx.size();
       b += static_cast<size_t>(cfg_.batch_size)) {
    val_batch_centers_.emplace_back(
        graph_.val_idx.begin() + b,
        graph_.val_idx.begin() +
            std::min(graph_.val_idx.size(),
                     b + static_cast<size_t>(cfg_.batch_size)));
  }
}

int Bsg4Bot::NumTrainBatches() const {
  return static_cast<int>(train_batch_centers_.size());
}

SubgraphBatch Bsg4Bot::AssembleTrainBatch(int index) const {
  return MakeSubgraphBatch(subgraphs_, train_batch_centers_[index],
                           graph_.num_relations());
}

std::vector<int> Bsg4Bot::EpochBatchOrder(int /*epoch*/) {
  rng_.Shuffle(&batch_order_);
  return batch_order_;
}

Tensor Bsg4Bot::BatchLoss(const SubgraphBatch& batch) {
  Tensor logits = ForwardBatch(batch);
  // Local labels + full mask over the batch.
  std::vector<int> labels(batch.centers.size());
  std::vector<int> mask(batch.centers.size());
  for (size_t i = 0; i < batch.centers.size(); ++i) {
    labels[i] = graph_.labels[batch.centers[i]];
    mask[i] = static_cast<int>(i);
  }
  return ops::SoftmaxCrossEntropy(logits, labels, mask);  // Eq. 16
}

EvalResult Bsg4Bot::Validate() {
  // The parameters changed since the last epoch; the inference forward
  // below reads the f64 tables.
  RebuildF64Tables();
  // The val batches are assembled on the first call, which Fit() makes
  // inside TrainMiniBatch's timer, and reused every epoch after it.
  if (val_batches_.empty()) {
    val_batches_.reserve(val_batch_centers_.size());
    for (const std::vector<int>& centers : val_batch_centers_) {
      val_batches_.push_back(
          MakeSubgraphBatch(subgraphs_, centers, graph_.num_relations()));
    }
  }
  std::vector<int> preds, val_labels;
  for (const SubgraphBatch& batch : val_batches_) {
    std::vector<int> batch_preds = ArgmaxRows(ScoreBatch(batch));
    preds.insert(preds.end(), batch_preds.begin(), batch_preds.end());
    for (int c : batch.centers) val_labels.push_back(graph_.labels[c]);
  }
  std::vector<int> all(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) all[i] = static_cast<int>(i);
  Confusion conf = ConfusionOn(preds, val_labels, all);
  return EvalResult{Accuracy(conf), F1Score(conf)};
}

const std::vector<Tensor>& Bsg4Bot::Parameters() const {
  return store_.params();
}

TrainResult Bsg4Bot::Fit() {
  Prepare();
  EnsureBatchComposition();

  // The epoch-order shuffle starts from the identity permutation each Fit
  // and then evolves in place across epochs.
  batch_order_.resize(train_batch_centers_.size());
  std::iota(batch_order_.begin(), batch_order_.end(), 0);

  TrainConfig tc;
  tc.max_epochs = cfg_.max_epochs;
  tc.min_epochs = cfg_.min_epochs;
  tc.patience = cfg_.patience;
  tc.lr = cfg_.lr;
  tc.weight_decay = cfg_.weight_decay;
  tc.verbose = cfg_.verbose;
  TrainResult res = TrainMiniBatch(this, tc);
  // The best-epoch parameters are now final.
  RefreshInferenceTables();

  if (!graph_.test_idx.empty()) {
    Matrix test_logits = PredictLogits(graph_.test_idx);
    std::vector<int> local_labels(graph_.test_idx.size());
    std::vector<int> all(graph_.test_idx.size());
    for (size_t i = 0; i < graph_.test_idx.size(); ++i) {
      local_labels[i] = graph_.labels[graph_.test_idx[i]];
      all[i] = static_cast<int>(i);
    }
    res.test = Evaluate(test_logits, local_labels, all);
    res.best_logits = std::move(test_logits);
  }
  return res;
}

Matrix Bsg4Bot::PredictLogits(const std::vector<int>& centers) {
  BSG_CHECK(prepared_, "PredictLogits before Prepare()");
  Matrix out(static_cast<int>(centers.size()), 2);
  const size_t chunk = static_cast<size_t>(cfg_.batch_size);
  std::vector<int> ids;
  std::vector<const BiasedSubgraph*> subs;
  for (size_t b = 0; b < centers.size(); b += chunk) {
    ids.assign(centers.begin() + b,
               centers.begin() + std::min(centers.size(), b + chunk));
    subs.clear();
    for (int c : ids) {
      BSG_CHECK(c >= 0 && static_cast<size_t>(c) < subgraphs_.size(),
                "batch centre out of range");
      subs.push_back(&subgraphs_[c]);
    }
    SubgraphBatch batch = predict_stacker_.Stack(subs, ids);
    const Matrix logits = ScoreBatch(batch);
    predict_stacker_.Recycle(std::move(batch));
    for (size_t i = 0; i < ids.size(); ++i) {
      out(static_cast<int>(b + i), 0) = logits(static_cast<int>(i), 0);
      out(static_cast<int>(b + i), 1) = logits(static_cast<int>(i), 1);
    }
  }
  return out;
}

std::vector<int> Bsg4Bot::Predict(const std::vector<int>& centers) {
  return ArgmaxRows(PredictLogits(centers));
}

double Bsg4Bot::TransferEvaluate(Bsg4Bot* other,
                                 const std::vector<int>& nodes) {
  BSG_CHECK(other != nullptr, "null transfer target");
  BSG_CHECK(other->store_.params().size() == store_.params().size(),
            "transfer between different architectures");
  other->Prepare();
  for (size_t i = 0; i < store_.params().size(); ++i) {
    BSG_CHECK(other->store_.params()[i]->value.SameShape(
                  store_.params()[i]->value),
              "transfer parameter shape mismatch");
    other->store_.params()[i]->value = store_.params()[i]->value;
  }
  other->RefreshInferenceTables();
  Matrix logits = other->PredictLogits(nodes);
  std::vector<int> local_labels(nodes.size());
  std::vector<int> all(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    local_labels[i] = other->graph_.labels[nodes[i]];
    all[i] = static_cast<int>(i);
  }
  return Evaluate(logits, local_labels, all).accuracy;
}

const std::vector<double>& Bsg4Bot::relation_weights() const {
  return fuse_.last_weights();
}

namespace {

// Checkpoint metadata keys. Params are stored under "param.<store name>",
// the pre-classifier state under "pretrain.*".
constexpr char kMetaModel[] = "model";
constexpr char kModelName[] = "BSG4Bot";
constexpr char kParamPrefix[] = "param.";

// Reads a required numeric metadata entry into *out (with a cast through
// double); returns a Status error when missing or non-numeric.
Status ReadNum(const Checkpoint& ckpt, const std::string& key, double* out) {
  Result<double> v = ckpt.MetaNum(key);
  BSG_RETURN_NOT_OK(v.status());
  *out = v.ValueOrDie();
  return Status::OK();
}

Status ReadInt(const Checkpoint& ckpt, const std::string& key, int* out) {
  double v = 0.0;
  BSG_RETURN_NOT_OK(ReadNum(ckpt, key, &v));
  *out = static_cast<int>(v);
  return Status::OK();
}

// Architecture equality check with an informative error.
Status CheckArch(const std::string& key, double expect, double got) {
  if (expect == got) return Status::OK();
  return Status::FailedPrecondition(
      "checkpoint architecture mismatch: " + key + " is " +
      StrFormat("%g", got) + ", model expects " + StrFormat("%g", expect));
}

}  // namespace

void Bsg4Bot::ExportCheckpoint(Checkpoint* ckpt) const {
  BSG_CHECK(ckpt != nullptr, "null checkpoint");
  BSG_CHECK(inference_ready(),
            "ExportCheckpoint before Prepare() (no pre-classifier state)");
  ckpt->SetMeta(kMetaModel, kModelName);
  ckpt->SetMetaNum("arch.hidden", cfg_.hidden);
  ckpt->SetMetaNum("arch.gnn_layers", cfg_.gnn_layers);
  ckpt->SetMetaNum("arch.num_relations", graph_.num_relations());
  ckpt->SetMetaNum("arch.feature_dim", graph_.feature_dim());
  ckpt->SetMetaNum("arch.use_intermediate_concat",
                   cfg_.use_intermediate_concat ? 1 : 0);
  ckpt->SetMetaNum("arch.use_semantic_attention",
                   cfg_.use_semantic_attention ? 1 : 0);
  ckpt->SetMetaNum("arch.leaky_slope", cfg_.leaky_slope);
  ckpt->SetMetaNum("arch.dropout", cfg_.dropout);
  ckpt->SetMetaNum("arch.pretrain_hidden", cfg_.pretrain.hidden);
  ckpt->SetMetaNum("subgraph.k", cfg_.subgraph.k);
  ckpt->SetMetaNum("subgraph.lambda", cfg_.subgraph.lambda);
  ckpt->SetMetaNum("subgraph.ppr_only", cfg_.subgraph.ppr_only ? 1 : 0);
  ckpt->SetMetaNum("subgraph.ppr.alpha", cfg_.subgraph.ppr.alpha);
  ckpt->SetMetaNum("subgraph.ppr.epsilon", cfg_.subgraph.ppr.epsilon);
  ckpt->SetMetaNum("subgraph.ppr.max_pushes", cfg_.subgraph.ppr.max_pushes);
  ckpt->SetMetaNum("train.batch_size", cfg_.batch_size);
  ckpt->SetMetaNum("train.lr", cfg_.lr);
  ckpt->SetMetaNum("train.weight_decay", cfg_.weight_decay);
  ckpt->SetMetaNum("train.max_epochs", cfg_.max_epochs);
  // Decimal string, not SetMetaNum: a double would corrupt seeds > 2^53.
  ckpt->SetMeta("train.seed",
                StrFormat("%llu", static_cast<unsigned long long>(cfg_.seed)));
  ckpt->SetMeta("graph.name", graph_.name);
  ckpt->SetMetaNum("graph.num_nodes", graph_.num_nodes);
  ckpt->SetMetaNum("pretrain.fit.accuracy", pretrain_.fit.accuracy);
  ckpt->SetMetaNum("pretrain.fit.f1", pretrain_.fit.f1);

  const std::vector<Tensor>& params = store_.params();
  const std::vector<std::string>& names = store_.names();
  for (size_t i = 0; i < params.size(); ++i) {
    ckpt->AddTensor(kParamPrefix + names[i], params[i]->value);
  }
  ckpt->AddTensor("pretrain.hidden_reps", pretrain_.hidden_reps);
  ckpt->AddTensor("pretrain.probs", pretrain_.probs);
}

Status Bsg4Bot::SaveCheckpoint(const std::string& path) const {
  Checkpoint ckpt;
  ExportCheckpoint(&ckpt);
  return bsg::SaveCheckpoint(ckpt, path);
}

Status Bsg4Bot::RestoreFromCheckpoint(const Checkpoint& ckpt) {
  const std::string* model = ckpt.FindMeta(kMetaModel);
  if (model == nullptr || *model != kModelName) {
    return Status::InvalidArgument("checkpoint is not a " +
                                   std::string(kModelName) + " checkpoint");
  }
  // Architecture must match the already-constructed network exactly.
  struct { const char* key; double expect; } checks[] = {
      {"arch.hidden", static_cast<double>(cfg_.hidden)},
      {"arch.gnn_layers", static_cast<double>(cfg_.gnn_layers)},
      {"arch.num_relations", static_cast<double>(graph_.num_relations())},
      {"arch.feature_dim", static_cast<double>(graph_.feature_dim())},
      {"arch.use_intermediate_concat",
       cfg_.use_intermediate_concat ? 1.0 : 0.0},
      {"arch.use_semantic_attention",
       cfg_.use_semantic_attention ? 1.0 : 0.0},
  };
  for (const auto& c : checks) {
    double got = 0.0;
    BSG_RETURN_NOT_OK(ReadNum(ckpt, c.key, &got));
    BSG_RETURN_NOT_OK(CheckArch(c.key, c.expect, got));
  }

  // Stage every tensor before mutating the model, so a bad checkpoint
  // leaves it untouched.
  const std::vector<Tensor>& params = store_.params();
  const std::vector<std::string>& names = store_.names();
  std::vector<const Matrix*> staged(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix* m = ckpt.FindTensor(kParamPrefix + names[i]);
    if (m == nullptr) {
      return Status::InvalidArgument("checkpoint missing parameter '" +
                                     names[i] + "'");
    }
    if (!m->SameShape(params[i]->value)) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint parameter '%s' has shape %dx%d, model expects %dx%d",
          names[i].c_str(), m->rows(), m->cols(), params[i]->value.rows(),
          params[i]->value.cols()));
    }
    staged[i] = m;
  }
  const Matrix* hidden_reps = ckpt.FindTensor("pretrain.hidden_reps");
  const Matrix* probs = ckpt.FindTensor("pretrain.probs");
  if (hidden_reps == nullptr || probs == nullptr) {
    return Status::InvalidArgument("checkpoint missing pre-classifier state");
  }
  if (hidden_reps->rows() != graph_.num_nodes ||
      probs->rows() != graph_.num_nodes) {
    return Status::FailedPrecondition(
        StrFormat("pre-classifier state covers %d nodes, graph has %d",
                  hidden_reps->rows(), graph_.num_nodes));
  }

  // Inference-relevant knobs travel with the model: the restored process
  // must assemble subgraphs and activations exactly as training did. Read
  // them before mutating anything, so a bad file leaves the model intact.
  BiasedSubgraphConfig sub_cfg = cfg_.subgraph;
  double leaky_slope = cfg_.leaky_slope;
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "subgraph.k", &sub_cfg.k));
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "subgraph.lambda", &sub_cfg.lambda));
  int ppr_only = 0;
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "subgraph.ppr_only", &ppr_only));
  sub_cfg.ppr_only = ppr_only != 0;
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "subgraph.ppr.alpha", &sub_cfg.ppr.alpha));
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "subgraph.ppr.epsilon",
                            &sub_cfg.ppr.epsilon));
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "subgraph.ppr.max_pushes",
                            &sub_cfg.ppr.max_pushes));
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "arch.leaky_slope", &leaky_slope));

  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = *staged[i];
  }
  pretrain_.hidden_reps = *hidden_reps;
  hidden_self_dots_ = RowSelfDots(pretrain_.hidden_reps);
  pretrain_.probs = *probs;
  // Informational metrics travel along when present.
  if (ckpt.MetaNum("pretrain.fit.accuracy").ok()) {
    pretrain_.fit.accuracy =
        ckpt.MetaNum("pretrain.fit.accuracy").ValueOrDie();
  }
  if (ckpt.MetaNum("pretrain.fit.f1").ok()) {
    pretrain_.fit.f1 = ckpt.MetaNum("pretrain.fit.f1").ValueOrDie();
  }
  cfg_.subgraph = sub_cfg;
  cfg_.leaky_slope = leaky_slope;

  // Any stored subgraphs were built from the previous pre-classifier state,
  // and the kept validation batches point into them.
  pretrain_restored_ = true;
  prepared_ = false;
  subgraphs_.clear();
  val_batches_.clear();
  // The inference tables and a live f32 shadow mirror the parameters just
  // replaced: refresh them so a serving process that reloads a checkpoint
  // keeps scoring the new weights (the one-time conversion happens here, at
  // load time).
  RefreshInferenceTables();
  return Status::OK();
}

Status Bsg4Bot::LoadCheckpoint(const std::string& path) {
  Result<Checkpoint> ckpt = bsg::LoadCheckpoint(path);
  BSG_RETURN_NOT_OK(ckpt.status());
  return RestoreFromCheckpoint(ckpt.ValueOrDie());
}

Result<Bsg4BotConfig> Bsg4Bot::CheckpointConfig(const Checkpoint& ckpt) {
  const std::string* model = ckpt.FindMeta(kMetaModel);
  if (model == nullptr || *model != kModelName) {
    return Status::InvalidArgument("checkpoint is not a " +
                                   std::string(kModelName) + " checkpoint");
  }
  Bsg4BotConfig cfg;
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "arch.hidden", &cfg.hidden));
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "arch.gnn_layers", &cfg.gnn_layers));
  int flag = 0;
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "arch.use_intermediate_concat", &flag));
  cfg.use_intermediate_concat = flag != 0;
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "arch.use_semantic_attention", &flag));
  cfg.use_semantic_attention = flag != 0;
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "arch.leaky_slope", &cfg.leaky_slope));
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "arch.dropout", &cfg.dropout));
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "arch.pretrain_hidden",
                            &cfg.pretrain.hidden));
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "subgraph.k", &cfg.subgraph.k));
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "subgraph.lambda", &cfg.subgraph.lambda));
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "subgraph.ppr_only", &flag));
  cfg.subgraph.ppr_only = flag != 0;
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "subgraph.ppr.alpha",
                            &cfg.subgraph.ppr.alpha));
  BSG_RETURN_NOT_OK(ReadNum(ckpt, "subgraph.ppr.epsilon",
                            &cfg.subgraph.ppr.epsilon));
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "subgraph.ppr.max_pushes",
                            &cfg.subgraph.ppr.max_pushes));
  BSG_RETURN_NOT_OK(ReadInt(ckpt, "train.batch_size", &cfg.batch_size));
  const std::string* seed = ckpt.FindMeta("train.seed");
  if (seed == nullptr) {
    return Status::NotFound("checkpoint metadata missing: train.seed");
  }
  char* end = nullptr;
  cfg.seed = std::strtoull(seed->c_str(), &end, 10);
  if (end == seed->c_str() || *end != '\0') {
    return Status::InvalidArgument("checkpoint train.seed not an integer: '" +
                                   *seed + "'");
  }
  return cfg;
}

BiasedSubgraph Bsg4Bot::AssembleSubgraph(int center) const {
  BSG_CHECK(inference_ready(),
            "AssembleSubgraph without pre-classifier state "
            "(run Prepare() or restore a checkpoint)");
  BSG_CHECK(center >= 0 && center < graph_.num_nodes, "centre out of range");
  // Scratch comes from the calling thread's SubgraphWorkspace, so every
  // serving caller assembles repeated misses without re-allocating PPR
  // state — and stays thread-safe, since no workspace is shared across
  // threads. The cached self-dots hoist the
  // Eq. 6 norm terms (refreshed wherever hidden_reps is set).
  return BuildBiasedSubgraph(graph_, pretrain_.hidden_reps, center,
                             cfg_.subgraph, &ThreadLocalSubgraphWorkspace(),
                             &hidden_self_dots_);
}

}  // namespace bsg
