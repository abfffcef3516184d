// Zero-allocation forward-push PPR: a reusable, epoch-stamped dense
// workspace.
//
// A forward push over fresh unordered_map/unordered_set/deque structures
// per call would make per-target subgraph assembly — the cold path of both
// training (BuildAllSubgraphs) and serving (DetectionEngine cache misses) —
// allocation-bound. A PprWorkspace holds dense arrays sized to the graph
// and replays the exact push sequence of that hash-map implementation on
// top of them, so every settled score is bit-identical to it (it is kept
// as the test oracle in tests/ppr_oracle.h) while a warm call performs
// zero heap allocations.
//
// The stamp-versioning trick: instead of clearing O(n) state between
// calls, every per-node slot carries a uint32 stamp and is considered
// live only when its stamp equals the workspace's current epoch. Bumping
// the epoch (one increment) invalidates all residual/settled/queue state
// at once; slots are lazily re-initialised on first touch. On the rare
// epoch wrap-around the stamps are bulk-cleared once.
//
// The bookkeeping is kept off the per-neighbour loop: a node enters the
// output list when it first settles positive mass (on the benchmark world,
// about 410 of the 1,400 nodes a call touches), the queue-admission
// threshold is precomputed in the node's slot, and the enqueue is a store
// plus a conditional advance. The output is left in that settle order; no
// final sort.
//
// A workspace is single-threaded state: give each thread its own (the
// subgraph assembler keeps one per worker thread; see biased_subgraph.h).
// It may be reused freely across graphs, sources and configs — buffers
// only ever grow, and `buffer_growths()` exposes how often they did, which
// is exactly the workspace's heap-allocation count.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "ppr/ppr.h"

namespace bsg {

/// Reusable dense state for forward-push PPR. One instance per thread.
class PprWorkspace {
 public:
  /// Forward-push approximate PPR from `source`, bit-identical to the
  /// hash-map oracle in tests/ppr_oracle.h: same push order, same
  /// floating-point operation order, so the same (node, score) set. The
  /// entries are in the order their nodes first settled positive mass —
  /// deterministic for a given graph, source and config, but not sorted
  /// by node id (the oracle's order); sort a copy to compare with it. The
  /// returned reference points into the workspace and is valid until the
  /// next call.
  const SparseVec& ApproximatePpr(const Csr& graph, int source,
                                  const PprConfig& cfg);

  /// Result of the last ApproximatePpr call.
  const SparseVec& result() const { return result_; }

  /// Total ApproximatePpr calls served.
  uint64_t calls() const { return calls_; }
  /// Times any internal buffer had to grow (== heap allocations incurred).
  /// Stable across warm calls: (calls() rising, buffer_growths() flat) is
  /// the zero-allocation regression check used by tests and benches.
  uint64_t buffer_growths() const { return buffer_growths_; }
  /// Node capacity the dense arrays are currently sized for.
  int capacity_nodes() const { return static_cast<int>(state_.size()); }

  /// Test hook: forces the epoch counter (e.g. next to UINT32_MAX) so the
  /// wrap-around path is exercisable without 2^32 calls.
  void OverrideEpochForTest(uint32_t epoch) { epoch_ = epoch; }

 private:
  /// Grows the dense arrays to at least `num_nodes` slots.
  void Reserve(int num_nodes);
  /// Starts a new call: one increment invalidates all stamped state.
  void BumpEpoch();

  /// Per-node slot, packed so one push touches one cache line instead of
  /// parallel arrays (the push loop is random-access bound). The
  /// queue-admission threshold eps * max(deg, 1) is computed on first
  /// touch, the oracle's own product: the check per neighbour visit then
  /// reads it from the slot it already pulled in, instead of two random
  /// indptr loads and a multiply. A pop reads its degree from indptr.
  struct NodeState {
    double residual = 0.0;     ///< r, valid iff stamp == epoch_
    double settled = 0.0;      ///< p, valid iff stamp == epoch_
    double threshold = 0.0;    ///< eps * max(deg, 1), valid iff stamp == epoch_
    uint32_t stamp = 0;        ///< residual/settled/threshold validity
    uint32_t queue_stamp = 0;  ///< queue-membership marker
  };

  uint32_t epoch_ = 0;  ///< slots are live iff their stamp equals this
  std::vector<NodeState> state_;  ///< dense per-node slots
  std::vector<int> queue_;  ///< FIFO ring, n + 1 slots (<= n outstanding)
  /// Output of the last call: one entry per node, appended when the node
  /// first settles positive mass; the scores are filled in at the end.
  SparseVec result_;

  uint64_t calls_ = 0;
  uint64_t buffer_growths_ = 0;
};

}  // namespace bsg
