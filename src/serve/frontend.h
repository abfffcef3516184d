// Concurrent serving front-end: worker pool + bounded queue + admission
// control over a DetectionEngine.
//
// Every BENCH number before PR 7 drove the engine from a single front-end
// thread. The cache's single-flight misses, the sharded buffer pool and
// the per-call engine scratch exist precisely so N workers can score at
// once — this class is the component that actually does it:
//
//   - requests (one account, or a batch of accounts) enter a bounded MPMC
//     queue and resolve through a std::future<FrontendResult>; a pool of
//     worker threads drains the queue through the engine, whose per-call
//     scratch + single-flight cache make concurrent scoring safe and
//     deduplicated;
//   - admission control sheds instead of queueing beyond the latency
//     budget: when the queue is full, or when the estimated queueing delay
//     ahead of a new request (inflight targets x learned ms/target /
//     workers) exceeds shed_p95_ms, the request resolves immediately with
//     RequestStatus::kShed — callers are never blocked and nothing is
//     dropped silently. Under an armed ResourceGovernor budget a third
//     cause applies: the request's queued payload is TryCharged to the
//     "serve.queue" account, and a hard-watermark refusal sheds with
//     RequestStatus::kShed + a kResourceExhausted detail. Sheds are
//     counted per cause (shed_queue_full / shed_latency / shed_resource)
//     next to queue_depth_peak;
//   - the per-target cost estimate is an EWMA of observed service time,
//     seeded by FrontendConfig::initial_ms_per_target (freeze_cost_model
//     pins it, making shed decisions exactly reproducible in tests);
//   - hot swap needs nothing from the front-end: the caller loads and
//     restores graph v+1 (minutes of work) while workers keep serving v,
//     then calls DetectionEngine::SwapModel, which flips one pointer and
//     purges every cached subgraph of a version < v+1. Workers never stop:
//     a request scores wholly on the {model, version} it started with, and
//     requests dequeued after the flip score on the new graph;
//   - Close() (and the destructor) stops admission, fails the backlog
//     explicitly with RequestStatus::kClosed, and joins the workers; every
//     submitted future always resolves.
//
// Failure semantics (PR 8 — see README "Failure semantics"):
//
//   - per-request deadlines: Submit(targets, deadline_ms) stamps an
//     absolute deadline; it is enforced when a worker dequeues the request
//     and between engine chunks (DetectionEngine::TryScoreBatch), so an
//     expired request resolves kTimeout instead of burning a forward pass;
//   - bounded retries: a retryable engine failure (Status taxonomy:
//     kUnavailable — transient builder/cache/forward faults) is retried up
//     to max_retries times with jittered exponential backoff; success
//     after a retry is indistinguishable from first-try success (same
//     bit-identical logits) apart from FrontendResult::attempts;
//   - circuit breaker: breaker_threshold consecutive terminal engine
//     failures trip the front-end into degraded mode — requests bypass the
//     engine and resolve kDegraded with the last known scores of their
//     targets (a bounded stale-score map) or a neutral fallback score,
//     never an error. After breaker_open_ms one probe request is let
//     through (half-open); success closes the breaker, failure re-opens
//     it. Degradation trades freshness for availability, explicitly;
//   - conservation (extended): every submitted request resolves exactly
//     once, so after Close
//       submitted == served + shed + closed + timed_out + failed + degraded
//     holds for requests and targets alike — asserted under a chaos soak
//     with faults firing at every injection site.
//
// Determinism: a request's logits depend only on its own target list
// (engine contract), so any worker count — and any interleaving — yields
// logits bit-identical to a serial DetectionEngine scoring the same
// request stream (asserted at workers 1/2/4 in tests/test_frontend.cc).
// The fault-free path with deadlines/retries/breaker left at their
// defaults is computationally identical to PR 7.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/engine.h"
#include "util/mpmc_queue.h"
#include "util/resource_governor.h"
#include "util/rng.h"

namespace bsg {

namespace obs {
struct RequestTrace;
class Histogram;
}  // namespace obs

/// Terminal state of one submitted request.
enum class RequestStatus {
  kOk = 0,    ///< scored; FrontendResult::scores aligns with the targets
  kShed,      ///< refused by admission control (queue full / budget blown)
  kClosed,    ///< the front-end shut down before this request was served
  kTimeout,   ///< the request's deadline expired before scoring finished
  kFailed,    ///< the engine failed terminally (retries exhausted or
              ///< non-retryable); FrontendResult::detail has the Status
  kDegraded,  ///< circuit open: served stale/fallback scores, not the model
};

/// What a submitted future resolves to.
struct FrontendResult {
  RequestStatus status = RequestStatus::kOk;
  /// kOk: fresh scores aligned with the targets. kDegraded: stale or
  /// fallback scores aligned with the targets. Empty otherwise.
  std::vector<Score> scores;
  /// Why the request timed out / failed / was degraded (OK for kOk/kShed/
  /// kClosed).
  Status detail;
  /// Engine attempts consumed (1 = first try succeeded; 0 = the engine was
  /// never reached: shed, closed, timed out at dequeue, or degraded).
  int attempts = 0;
};

/// Front-end knobs.
struct FrontendConfig {
  /// Worker threads draining the queue. 0 is allowed — requests are
  /// admitted/shed but never served until Close fails them — and exists
  /// for deterministic admission tests and staged bring-up.
  int workers = 2;
  /// Bounded queue depth, in requests. A full queue sheds.
  size_t queue_capacity = 256;
  /// p95 latency budget in milliseconds; a request whose estimated
  /// queueing delay exceeds it is shed at submission. 0 disables
  /// latency-based shedding (queue-full shedding always applies).
  double shed_p95_ms = 0.0;
  /// Seed of the per-target service-cost estimate (ms). 0 = learn from
  /// the first served request onward.
  double initial_ms_per_target = 0.0;
  /// Pin the cost estimate to initial_ms_per_target (reproducible
  /// admission decisions; tests).
  bool freeze_cost_model = false;
  /// EWMA smoothing of the cost estimate: new = a*observed + (1-a)*old.
  double cost_ewma_alpha = 0.2;

  // --- failure-semantics knobs (PR 8) ---

  /// Deadline stamped on requests submitted without an explicit one, in
  /// milliseconds from submission. <= 0 = no default deadline.
  double default_deadline_ms = 0.0;
  /// Retries (beyond the first attempt) for retryable engine failures.
  int max_retries = 0;
  /// Base of the jittered exponential backoff between retries:
  /// backoff(attempt k) = retry_backoff_ms * 2^(k-1) * U[0.5, 1.5).
  double retry_backoff_ms = 0.5;
  /// Seeds the per-worker backoff jitter streams (deterministic given the
  /// worker index).
  uint64_t retry_jitter_seed = 0x5EED5EEDULL;
  /// Consecutive terminal engine failures that trip the circuit breaker.
  /// 0 disables the breaker (failures surface as kFailed, never degraded).
  int breaker_threshold = 0;
  /// How long the breaker stays open before letting one probe through.
  double breaker_open_ms = 50.0;
  /// Bound on the stale-score map that backs degraded serving (targets
  /// beyond it degrade to the neutral fallback score).
  size_t stale_score_capacity = 4096;
};

/// Cumulative front-end counters. Requests in flight at snapshot time are
/// submitted but not yet resolved, so
///   submitted_requests >= AccountedRequests()
/// with equality after Close (the extended conservation invariant).
struct FrontendStats {
  uint64_t submitted_requests = 0;
  uint64_t served_requests = 0;
  /// shed_queue_full + shed_latency + shed_resource
  uint64_t shed_requests = 0;
  uint64_t shed_queue_full = 0;   ///< bounded queue was full
  uint64_t shed_latency = 0;      ///< estimated wait blew shed_p95_ms
  /// The governor's hard watermark refused the queued payload (memory
  /// budget exhausted — resolved kShed with a kResourceExhausted detail).
  uint64_t shed_resource = 0;
  uint64_t closed_requests = 0;   ///< failed by Close/destructor
  uint64_t timed_out_requests = 0;  ///< resolved kTimeout
  uint64_t failed_requests = 0;     ///< resolved kFailed
  uint64_t degraded_requests = 0;   ///< resolved kDegraded (breaker open)
  uint64_t targets_submitted = 0;
  uint64_t targets_served = 0;
  uint64_t targets_shed = 0;
  uint64_t targets_closed = 0;
  uint64_t targets_timed_out = 0;
  uint64_t targets_failed = 0;
  uint64_t targets_degraded = 0;
  /// Engine re-attempts beyond each request's first (sum over requests).
  uint64_t retries = 0;
  /// Requests that resolved kOk after at least one retry.
  uint64_t retry_successes = 0;
  uint64_t breaker_trips = 0;       ///< transitions into the open state
  uint64_t breaker_probes = 0;      ///< half-open probe requests admitted
  uint64_t breaker_recoveries = 0;  ///< probes that closed the breaker
  /// Degraded targets answered from the stale-score map vs the neutral
  /// fallback (degraded_stale + degraded_fallback == targets_degraded).
  uint64_t degraded_stale = 0;
  uint64_t degraded_fallback = 0;
  uint64_t queue_depth_peak = 0;  ///< max requests resident in the queue
  double ms_per_target_estimate = 0.0;  ///< current cost-model value
  EngineStats engine;  ///< engine/cache/stacker snapshot

  /// Left side of the conservation invariant: requests resolved so far.
  uint64_t AccountedRequests() const {
    return served_requests + shed_requests + closed_requests +
           timed_out_requests + failed_requests + degraded_requests;
  }
  uint64_t AccountedTargets() const {
    return targets_served + targets_shed + targets_closed +
           targets_timed_out + targets_failed + targets_degraded;
  }

  double ShedRate() const {
    return submitted_requests == 0
               ? 0.0
               : static_cast<double>(shed_requests) /
                     static_cast<double>(submitted_requests);
  }
};

/// The concurrent front-end. The engine (and the model behind it) must
/// outlive the front-end.
class ServingFrontend {
 public:
  ServingFrontend(DetectionEngine* engine, FrontendConfig cfg);
  ~ServingFrontend();  ///< Close()s.

  ServingFrontend(const ServingFrontend&) = delete;
  ServingFrontend& operator=(const ServingFrontend&) = delete;

  /// Queues a batch request. Always returns a future that resolves —
  /// immediately with kShed/kClosed when admission refuses it, with the
  /// scores (or kTimeout/kFailed/kDegraded) once a worker handles it
  /// otherwise. Uses cfg.default_deadline_ms. Thread-safe.
  std::future<FrontendResult> Submit(std::vector<int> targets);
  /// As above with an explicit per-request deadline in milliseconds from
  /// now (<= 0 = no deadline, overriding any default).
  std::future<FrontendResult> Submit(std::vector<int> targets,
                                     double deadline_ms);
  /// Queues a single-account request (the engine's latency path).
  std::future<FrontendResult> SubmitOne(int target);
  std::future<FrontendResult> SubmitOne(int target, double deadline_ms);

  /// Submit + wait. Thread-safe; callers are the "client threads".
  FrontendResult ScoreBatch(std::vector<int> targets);
  FrontendResult ScoreOne(int target);

  /// Stops admission, resolves the backlog with kClosed, joins workers.
  /// Idempotent; called by the destructor.
  void Close();

  FrontendStats Stats() const;
  const FrontendConfig& config() const { return cfg_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::vector<int> targets;
    bool single = false;
    bool has_deadline = false;
    Clock::time_point deadline{};
    /// Admission time: feeds the queue-wait histogram and the end-to-end
    /// latency histogram at resolve.
    Clock::time_point submit_time{};
    /// Sampled pipeline trace, or null (almost always) — see obs/trace.h.
    obs::RequestTrace* trace = nullptr;
    /// Bytes charged to the "serve.queue" governor account at admission;
    /// released on every resolve path once the request leaves the system.
    uint64_t payload_bytes = 0;
    std::promise<FrontendResult> promise;
  };

  /// Circuit-breaker states (classic closed -> open -> half-open cycle).
  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  /// What the breaker lets a dequeued request do.
  enum class BreakerGate {
    kServe,    ///< breaker closed: score through the engine
    kProbe,    ///< half-open: this request is the recovery probe
    kDegrade,  ///< open: answer from stale scores / fallback
  };

  std::future<FrontendResult> SubmitInternal(std::vector<int> targets,
                                             bool single, double deadline_ms);
  void WorkerLoop(int worker_index);
  /// Scores one dequeued request through the deadline/retry/breaker
  /// machinery and resolves its promise (always).
  void ServeRequest(Request* req, Rng* jitter);
  /// Resolves a request from the stale-score map / fallback head.
  void ServeDegraded(Request* req);
  BreakerGate BreakerAdmit();
  /// Feeds one terminal engine outcome back into the breaker.
  void BreakerRecord(bool ok, bool was_probe);
  /// Worker-side resolve bookkeeping shared by every terminal path:
  /// observes the end-to-end latency histogram and finishes the request's
  /// sampled trace (no-ops when untraced). Call before resolving the
  /// promise so a waiter that immediately reads the trace ring sees this
  /// request.
  void ObserveResolve(Request* req, RequestStatus status, int attempts);
  /// Remembers fresh scores for degraded serving (bounded).
  void UpdateStaleScores(const std::vector<Score>& scores);
  /// Folds one observed per-target service time into the EWMA.
  void ObserveCost(double ms_per_target);
  double CostEstimate() const;

  DetectionEngine* const engine_;
  const FrontendConfig cfg_;

  // Registry-interned latency histograms (stable process-wide pointers —
  // obs/metrics.h). request_latency covers every request resolved by a
  // worker (all terminal statuses); queue_wait covers submit -> dequeue.
  // Admission-time resolutions (shed/closed at Submit) are counted but not
  // timed — their latency is the Submit call itself.
  obs::Histogram* request_latency_hist_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;

  /// Governor account for queued request payloads ("serve.queue"): charged
  /// at admission, released at resolve, so its resident bytes track the
  /// admitted-but-unresolved backlog. TryCharge refusal = shed_resource.
  ResourceGovernor::Account* queue_account_ = nullptr;

  BoundedMpmcQueue<Request> queue_;

  // Cost model (EWMA of ms per target), guarded by its own mutex: touched
  // once per request, never on the per-target hot path.
  mutable std::mutex cost_mu_;
  double ms_per_target_ = 0.0;

  // Circuit breaker (guarded by breaker_mu_; touched once per dequeued
  // request). probe_in_flight_ keeps half-open to exactly one probe.
  std::mutex breaker_mu_;
  BreakerState breaker_state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  Clock::time_point breaker_opened_at_{};

  // Stale scores for degraded serving: last fresh Score per target,
  // bounded by cfg_.stale_score_capacity (inserts beyond it are dropped —
  // those targets degrade to the fallback score).
  std::mutex stale_mu_;
  std::unordered_map<int, Score> stale_scores_;

  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> submitted_requests_{0};
  std::atomic<uint64_t> served_requests_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_latency_{0};
  std::atomic<uint64_t> shed_resource_{0};
  std::atomic<uint64_t> closed_requests_{0};
  std::atomic<uint64_t> timed_out_requests_{0};
  std::atomic<uint64_t> failed_requests_{0};
  std::atomic<uint64_t> degraded_requests_{0};
  std::atomic<uint64_t> targets_submitted_{0};
  std::atomic<uint64_t> targets_served_{0};
  std::atomic<uint64_t> targets_shed_{0};
  std::atomic<uint64_t> targets_closed_{0};
  std::atomic<uint64_t> targets_timed_out_{0};
  std::atomic<uint64_t> targets_failed_{0};
  std::atomic<uint64_t> targets_degraded_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> retry_successes_{0};
  std::atomic<uint64_t> breaker_trips_{0};
  std::atomic<uint64_t> breaker_probes_{0};
  std::atomic<uint64_t> breaker_recoveries_{0};
  std::atomic<uint64_t> degraded_stale_{0};
  std::atomic<uint64_t> degraded_fallback_{0};
  std::atomic<uint64_t> queue_depth_peak_{0};
  /// Targets admitted but not yet finished (queued + being scored) — the
  /// backlog the admission controller prices.
  std::atomic<int64_t> inflight_targets_{0};

  std::mutex close_mu_;  ///< serialises Close against itself

  // Last member: workers read everything above.
  std::vector<std::thread> workers_;
};

}  // namespace bsg
