// Per-request pipeline tracing for the serving stack.
//
// A sampled request carries a `RequestTrace*` from admission through the
// frontend worker, the engine, and subgraph assembly; each stage records a
// span (stage id, chunk index, start, duration). Completed traces land in
// a bounded in-memory ring for `--metrics-out` JSON export and tests.
//
// Cost model (the whole point):
//   * Untraced path: `Tracer::MaybeStart` is one relaxed atomic load and a
//     predicted-not-taken branch when sampling is disabled — the BSG_FAULT
//     discipline — and every downstream stage guards on `trace != nullptr`.
//     Zero allocation, asserted by test_trace's
//     Tracer.DisabledPathReturnsNullAndNeverAllocates (per-check cost
//     frozen in BENCH_pr9.json).
//   * Traced path: spans write into a fixed-capacity array inside a
//     pre-allocated slot; claiming a span is one relaxed fetch_add. No
//     allocation per span. Traces past the span capacity drop extra spans
//     (counted in `truncated_spans`), never grow.
//
// Sampling is deterministic 1-in-N on the admission sequence number, so a
// replayed workload samples the same requests regardless of thread
// interleaving.
//
// Thread safety: span slots are claimed atomically, so any number of
// threads may write one RequestTrace. The engine writes its spans on the
// calling thread (it starts no threads of its own), so once the engine
// call returns no span writes remain; Finish/Abandon must only be called
// after that.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/resource_governor.h"

namespace bsg {
namespace obs {

/// Pipeline stages a span can label. Order is presentation order.
enum class TraceStage : uint8_t {
  kQueueWait = 0,   ///< submit -> worker dequeue
  kCacheProbe = 1,  ///< subgraph cache lookup (excluding builds)
  kBuild = 2,       ///< PPR + subgraph assembly on a miss
  kStack = 3,       ///< batch stacking of cached subgraphs
  kForward = 4,     ///< model forward over the assembled batch
  kBackoff = 5,     ///< retry backoff sleep between attempts
  kDegraded = 6,    ///< stale/fallback scoring path
};

const char* TraceStageName(TraceStage stage);

/// One timed stage within a request. Times are absolute steady-clock
/// nanoseconds (same epoch for every span in a process), so spans from
/// different threads order correctly.
struct TraceSpan {
  TraceStage stage = TraceStage::kQueueWait;
  int32_t chunk = -1;  ///< engine chunk index, -1 for request-level spans
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

/// Absolute steady-clock nanoseconds (the span timebase).
inline uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Fixed-capacity span recorder for one sampled request. Pre-allocated by
/// the Tracer; AddSpan never allocates.
struct RequestTrace {
  static constexpr size_t kMaxSpans = 48;

  uint64_t seq = 0;          ///< admission sequence number (sampling key)
  uint32_t num_targets = 0;  ///< request size at submit
  uint64_t start_ns = 0;     ///< submit time
  uint64_t end_ns = 0;       ///< resolve time (set by Finish)
  int attempts = 0;          ///< engine attempts (set by Finish)
  /// Resolved FrontendResult status label ("ok", "shed", ...; Finish).
  std::string status;

  TraceSpan spans[kMaxSpans];
  std::atomic<uint32_t> nspans{0};      ///< claimed slots (clamped to cap)
  std::atomic<uint32_t> truncated{0};   ///< spans dropped past capacity

  /// Claims a slot and records a span; lock-free, no allocation. Safe from
  /// any thread participating in the request.
  void AddSpan(TraceStage stage, uint64_t start_ns_abs, uint64_t dur_ns,
               int32_t chunk = -1);

  /// Spans recorded so far, in slot-claim order (== program order per
  /// thread). Valid after the request quiesces.
  size_t SpanCount() const {
    uint32_t n = nspans.load(std::memory_order_acquire);
    return n < kMaxSpans ? n : kMaxSpans;
  }

  /// Sum of span durations for `stage` (ns); SpanCount() semantics.
  uint64_t StageTotalNs(TraceStage stage) const;
  bool HasStage(TraceStage stage) const;
  /// Sum of ALL span durations (ns).
  uint64_t TotalSpanNs() const;
  uint64_t ElapsedNs() const { return end_ns - start_ns; }

  void Reset();
};

/// A completed trace copied out of its live slot into the ring (plain data,
/// no atomics — safe to copy around).
struct CompletedTrace {
  uint64_t seq = 0;
  uint32_t num_targets = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int attempts = 0;
  std::string status;
  std::vector<TraceSpan> spans;

  uint64_t ElapsedNs() const { return end_ns - start_ns; }
  uint64_t StageTotalNs(TraceStage stage) const;
  bool HasStage(TraceStage stage) const;
  uint64_t TotalSpanNs() const;
};

/// Tracer bookkeeping counters (all cumulative since Enable).
struct TracerStats {
  uint64_t sampled = 0;        ///< MaybeStart calls that returned a trace
  uint64_t completed = 0;      ///< traces Finished into the ring
  uint64_t abandoned = 0;      ///< traces returned without completing
  uint64_t dropped_no_slot = 0;  ///< sample hits with no free live slot
  uint64_t truncated_spans = 0;  ///< spans dropped at kMaxSpans
};

/// Process-wide trace sampler. Disabled by default (zero-cost path).
class Tracer {
 public:
  static Tracer& Global();

  /// Arms sampling: every `sample_every`-th admitted request is traced
  /// (1 = every request). `ring_capacity` bounds completed traces kept
  /// (oldest evicted); `max_live` bounds concurrently-sampled requests
  /// (sample hits beyond it are dropped, counted). Resets counters, the
  /// ring, and the admission sequence.
  void Enable(uint32_t sample_every, size_t ring_capacity = 64,
              size_t max_live = 16);

  /// Back to the disarmed fast path. In-flight traces stay valid (their
  /// slots are reclaimed on Finish/Abandon); the completed ring survives
  /// until the next Enable.
  void Disable();

  bool enabled() const;
  uint32_t sample_every() const;

  /// The admission-time fast path. Returns nullptr (one relaxed load +
  /// predicted branch, no allocation) unless tracing is enabled AND this
  /// sequence number samples AND a live slot is free.
  RequestTrace* MaybeStart(uint32_t num_targets);

  /// Completes a sampled trace: stamps end/status/attempts, copies it into
  /// the ring, recycles the slot. `trace` may be null (no-op) so resolve
  /// paths call it unconditionally.
  void Finish(RequestTrace* trace, const char* status, int attempts);

  /// Recycles a slot without recording (request vanished before resolve —
  /// e.g. failed queue push where the shed path already resolved).
  void Abandon(RequestTrace* trace);

  /// Snapshot of completed traces, oldest first.
  std::vector<CompletedTrace> Completed() const;
  TracerStats Stats() const;

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RequestTrace>> slots_;
  std::vector<RequestTrace*> free_slots_;
  std::vector<CompletedTrace> ring_;  // oldest first
  size_t ring_capacity_ = 0;

  /// Governor account ("obs.trace") covering the pre-allocated slot pool
  /// and the completed-ring provisioning. Registered lazily on the first
  /// Enable (under mu_); slot-pool growth is charged as it happens and the
  /// ring charge is re-provisioned per Enable (tracked here so the old
  /// capacity is released first).
  ResourceGovernor::Account* account_ = nullptr;
  uint64_t ring_charged_bytes_ = 0;

  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> sampled_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> abandoned_{0};
  std::atomic<uint64_t> dropped_no_slot_{0};
  std::atomic<uint64_t> truncated_spans_{0};
};

/// 0 = disabled; N = trace every Nth admitted request. Read by the
/// MaybeStart fast path exactly like fault.h's g_fault_armed.
extern std::atomic<uint32_t> g_trace_sample_every;

/// RAII span helper: times a scope into `trace` if non-null. Stack-only,
/// no allocation.
class ScopedSpan {
 public:
  ScopedSpan(RequestTrace* trace, TraceStage stage, int32_t chunk = -1)
      : trace_(trace), stage_(stage), chunk_(chunk) {
    if (trace_ != nullptr) start_ns_ = TraceNowNs();
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->AddSpan(stage_, start_ns_, TraceNowNs() - start_ns_, chunk_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RequestTrace* trace_;
  TraceStage stage_;
  int32_t chunk_;
  uint64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace bsg
