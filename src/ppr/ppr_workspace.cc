#include "ppr/ppr_workspace.h"

#include <algorithm>

#include "util/status.h"

// Never contract a multiply and an add into an FMA in this file, whatever
// the build flags say: the settled mass p += alpha * r must round as the
// oracle's does (tests/ppr_oracle.h), or every subgraph shifts.
// CMakeLists.txt passes -ffp-contract=off, but a build that compiles src/
// with its own flags may not.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace bsg {

void PprWorkspace::Reserve(int num_nodes) {
  if (static_cast<int>(state_.size()) >= num_nodes) return;
  ++buffer_growths_;
  // Stale stamps survive the resize: anything below the current epoch is
  // dead by definition, and fresh slots start at stamp 0 (< any live
  // epoch).
  state_.resize(num_nodes);
  // One spare slot: the enqueue stores at `tail` before it knows whether
  // the node is admitted, so the slot at `tail` must never hold a live
  // entry, even with all n nodes queued.
  queue_.resize(static_cast<size_t>(num_nodes) + 1);
  // Every node settles into the output at most once per call, so capacity
  // n makes it allocation-free no matter which source runs.
  result_.reserve(num_nodes);
}

void PprWorkspace::BumpEpoch() {
  if (++epoch_ == 0) {
    // uint32 wrap: stamps written ~4 billion calls ago could alias the new
    // epoch. Bulk-clear once and restart at 1 (0 stays "never stamped" —
    // the dequeue marker relies on the live epoch never being 0).
    for (NodeState& s : state_) {
      s.stamp = 0;
      s.queue_stamp = 0;
    }
    epoch_ = 1;
  }
}

const SparseVec& PprWorkspace::ApproximatePpr(const Csr& graph, int source,
                                              const PprConfig& cfg) {
  const int n = graph.num_nodes();
  BSG_CHECK(source >= 0 && source < n, "bad PPR source");
  BSG_CHECK(cfg.alpha > 0.0 && cfg.alpha < 1.0, "alpha out of range");
  BSG_CHECK(cfg.epsilon > 0.0, "epsilon must be positive");
  Reserve(n);
  BumpEpoch();
  ++calls_;
  result_.clear();

  const double eps = cfg.epsilon;
  // Lazily activates a node's slot for this epoch (the dense analogue of
  // the hash maps' insert-on-first-access). The threshold is the oracle's
  // admission product eps * max(deg, 1), computed once here instead of at
  // every visit: the same operands, so the same bits.
  auto touch = [&](int u) -> NodeState& {
    NodeState& s = state_[u];
    if (s.stamp != epoch_) {
      s.stamp = epoch_;
      s.residual = 0.0;
      s.settled = 0.0;
      s.threshold = eps * std::max(graph.Degree(u), 1);
    }
    return s;
  };
  // Adds settled mass; a node joins the output on its 0 -> > 0 transition
  // (not on its first settle, which could underflow to 0 and add nothing).
  auto settle = [&](int u, NodeState& s, double mass) {
    const bool first = s.settled == 0.0;
    s.settled += mass;
    if (first && s.settled > 0.0) result_.emplace_back(u, 0.0);
  };

  // FIFO ring over queue_ (n + 1 slots): a node is in the queue iff its
  // queue_stamp equals the epoch, so at most n entries are outstanding and
  // the slot at `tail` is always free.
  const int cap = static_cast<int>(queue_.size());
  int head = 0, tail = 0, in_flight = 0;
  {
    NodeState& src = touch(source);
    src.residual = 1.0;
    src.queue_stamp = epoch_;
  }
  queue_[tail++] = source;
  ++in_flight;

  int pushes = 0;
  while (in_flight > 0 && pushes < cfg.max_pushes) {
    const int u = queue_[head];
    if (++head == cap) head = 0;
    --in_flight;
    NodeState& su = state_[u];  // u was queued, so u is stamped
    su.queue_stamp = 0;         // dequeued (live epochs are never 0)
    const double ru = su.residual;
    const int deg = graph.Degree(u);
    if (deg == 0) {
      // Dangling node: settle all residual mass here.
      settle(u, su, ru);
      su.residual = 0.0;
      continue;
    }
    // deg >= 1, so the threshold is the oracle's eps * deg.
    if (ru < su.threshold) continue;
    ++pushes;
    settle(u, su, cfg.alpha * ru);
    const double push_mass = (1.0 - cfg.alpha) * ru / deg;
    su.residual = 0.0;
    for (const int* q = graph.NeighborsBegin(u); q != graph.NeighborsEnd(u);
         ++q) {
      const int v = *q;
      NodeState& sv = touch(v);
      const double rv = (sv.residual += push_mass);
      // Branch-free enqueue: the store always happens (the slot at `tail`
      // is free), and `tail` advances only for an admitted node.
      const bool admit = sv.queue_stamp != epoch_ && rv >= sv.threshold;
      queue_[tail] = v;
      tail += admit;
      tail = tail == cap ? 0 : tail;
      in_flight += admit;
      sv.queue_stamp = admit ? epoch_ : sv.queue_stamp;
    }
  }

  // Same (node, score) set as the reference: positive settled mass only.
  // The entries stay in settle order; the scores are final only now.
  for (auto& [u, score] : result_) score = state_[u].settled;
  return result_;
}

}  // namespace bsg
