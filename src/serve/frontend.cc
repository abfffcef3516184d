#include "serve/frontend.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/timer.h"

namespace bsg {

namespace {

/// Trace status labels, aligned with RequestStatus (exported in trace
/// JSON; the CI smoke and tests match on these strings).
const char* StatusLabel(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kShed:
      return "shed";
    case RequestStatus::kClosed:
      return "closed";
    case RequestStatus::kTimeout:
      return "timeout";
    case RequestStatus::kFailed:
      return "failed";
    case RequestStatus::kDegraded:
      return "degraded";
  }
  return "unknown";
}

void Resolve(std::promise<FrontendResult>* promise, RequestStatus status,
             std::vector<Score> scores = {}, Status detail = Status::OK(),
             int attempts = 0) {
  FrontendResult result;
  result.status = status;
  result.scores = std::move(scores);
  result.detail = std::move(detail);
  result.attempts = attempts;
  promise->set_value(std::move(result));
}

// EWMA smoothing of the per-target cost estimate:
// new = a * observed + (1 - a) * old.
constexpr double kCostEwmaAlpha = 0.2;
// Seeds the per-worker backoff jitter streams (deterministic given the
// worker index).
constexpr uint64_t kRetryJitterSeed = 0x5EED5EEDULL;
// Bound on the stale-score map that backs degraded serving (targets beyond
// it degrade to the neutral fallback score).
constexpr size_t kStaleScoreCapacity = 4096;

/// The degraded-mode "cheap fallback head": a maximally uncertain answer
/// for a target with no cached score — bot_prob 0.5, zero logits, human
/// label. Explicitly marked kDegraded at the request level, so callers can
/// tell it from a model answer.
Score FallbackScore(int target) {
  Score s;
  s.target = target;
  s.bot_prob = 0.5;
  return s;
}

}  // namespace

ServingFrontend::ServingFrontend(DetectionEngine* engine, FrontendConfig cfg)
    : engine_(engine), cfg_(cfg), queue_(cfg.queue_capacity) {
  BSG_CHECK(engine != nullptr, "null engine");
  BSG_CHECK(cfg_.workers >= 0, "negative worker count");
  BSG_CHECK(cfg_.max_retries >= 0, "negative max_retries");
  BSG_CHECK(cfg_.retry_backoff_ms >= 0.0, "negative retry_backoff_ms");
  BSG_CHECK(cfg_.breaker_threshold >= 0, "negative breaker_threshold");
  BSG_CHECK(cfg_.breaker_open_ms >= 0.0, "negative breaker_open_ms");
  request_latency_hist_ = obs::MetricsRegistry::Global().GetHistogram(
      obs::metric::kRequestLatencyMs);
  queue_wait_hist_ =
      obs::MetricsRegistry::Global().GetHistogram(obs::metric::kQueueWaitMs);
  queue_account_ = ResourceGovernor::Global().RegisterAccount("serve.queue");
  ms_per_target_ = cfg_.initial_ms_per_target;
  workers_.reserve(static_cast<size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ServingFrontend::~ServingFrontend() { Close(); }

std::future<FrontendResult> ServingFrontend::Submit(std::vector<int> targets) {
  return SubmitInternal(std::move(targets), /*single=*/false,
                        cfg_.default_deadline_ms);
}

std::future<FrontendResult> ServingFrontend::Submit(std::vector<int> targets,
                                                    double deadline_ms) {
  return SubmitInternal(std::move(targets), /*single=*/false, deadline_ms);
}

std::future<FrontendResult> ServingFrontend::SubmitOne(int target) {
  return SubmitInternal({target}, /*single=*/true, cfg_.default_deadline_ms);
}

std::future<FrontendResult> ServingFrontend::SubmitOne(int target,
                                                       double deadline_ms) {
  return SubmitInternal({target}, /*single=*/true, deadline_ms);
}

FrontendResult ServingFrontend::ScoreBatch(std::vector<int> targets) {
  return Submit(std::move(targets)).get();
}

FrontendResult ServingFrontend::ScoreOne(int target) {
  return SubmitOne(target).get();
}

std::future<FrontendResult> ServingFrontend::SubmitInternal(
    std::vector<int> targets, bool single, double deadline_ms) {
  submitted_requests_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t n = static_cast<uint64_t>(targets.size());
  targets_submitted_.fetch_add(n, std::memory_order_relaxed);

  // Deterministic 1-in-N sampling on the admission sequence (null on the
  // common path at the cost of one relaxed load — see obs/trace.h).
  obs::RequestTrace* trace =
      obs::Tracer::Global().MaybeStart(static_cast<uint32_t>(n));

  std::promise<FrontendResult> promise;
  std::future<FrontendResult> future = promise.get_future();

  if (closed_.load(std::memory_order_acquire)) {
    closed_requests_.fetch_add(1, std::memory_order_relaxed);
    targets_closed_.fetch_add(n, std::memory_order_relaxed);
    obs::Tracer::Global().Finish(trace, "closed", 0);
    Resolve(&promise, RequestStatus::kClosed);
    return future;
  }
  if (targets.empty()) {
    // A zero-target batch is trivially served; don't spend a queue slot.
    served_requests_.fetch_add(1, std::memory_order_relaxed);
    obs::Tracer::Global().Finish(trace, "ok", 0);
    Resolve(&promise, RequestStatus::kOk);
    return future;
  }

  // Latency admission: price the backlog ahead of this request with the
  // learned per-target cost. Unknown cost (estimate 0) admits — the model
  // learns from the first served requests.
  if (cfg_.shed_p95_ms > 0.0) {
    const double est = CostEstimate();
    if (est > 0.0) {
      const int64_t inflight =
          inflight_targets_.load(std::memory_order_relaxed);
      const double lanes = static_cast<double>(std::max(cfg_.workers, 1));
      const double wait_ms =
          static_cast<double>(inflight + static_cast<int64_t>(n)) * est /
          lanes;
      if (wait_ms > cfg_.shed_p95_ms) {
        shed_latency_.fetch_add(1, std::memory_order_relaxed);
        targets_shed_.fetch_add(n, std::memory_order_relaxed);
        obs::Tracer::Global().Finish(trace, "shed", 0);
        Resolve(&promise, RequestStatus::kShed);
        return future;
      }
    }
  }

  // Resource admission: the queued payload is TryCharged to the governor.
  // With no budget armed this always lands (pure counting — zero
  // behavioral change); at the hard watermark (or a governor.charge fault
  // fire) the request sheds with an explicit resource-exhausted detail,
  // keeping the process inside its byte budget instead of queueing toward
  // an OOM.
  const uint64_t payload_bytes = n * sizeof(int);
  if (!queue_account_->TryCharge(payload_bytes)) {
    shed_resource_.fetch_add(1, std::memory_order_relaxed);
    targets_shed_.fetch_add(n, std::memory_order_relaxed);
    obs::Tracer::Global().Finish(trace, "shed", 0);
    Resolve(&promise, RequestStatus::kShed, {},
            Status::ResourceExhausted(
                "memory budget exhausted: request payload refused at the "
                "hard watermark"));
    return future;
  }

  // Count the targets as in flight before the push: a worker may pop and
  // finish the request before TryPush even returns.
  inflight_targets_.fetch_add(static_cast<int64_t>(n),
                              std::memory_order_relaxed);
  Request req;
  req.targets = std::move(targets);
  req.single = single;
  req.submit_time = Clock::now();
  req.trace = trace;
  req.payload_bytes = payload_bytes;
  if (deadline_ms > 0.0) {
    req.has_deadline = true;
    req.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          deadline_ms));
  }
  req.promise = std::move(promise);
  size_t depth_after = 0;
  // The frontend.push fault site simulates the queue refusing the request
  // (it exercises the same shed path as a genuinely full queue).
  const bool pushed =
      !BSG_FAULT(fault::kFrontendPush) && queue_.TryPush(std::move(req), &depth_after);
  if (!pushed) {
    inflight_targets_.fetch_sub(static_cast<int64_t>(n),
                                std::memory_order_relaxed);
    queue_account_->Release(payload_bytes);
    // TryPush leaves the value untouched on failure, so req still owns the
    // promise. Queue-full and racing-with-Close both shed here; Close's
    // backlog accounting only covers requests that made it into the queue.
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    targets_shed_.fetch_add(n, std::memory_order_relaxed);
    obs::Tracer::Global().Finish(req.trace, "shed", 0);
    Resolve(&req.promise, RequestStatus::kShed);
    return future;
  }
  // Racy max update is fine: the peak is a monotone statistic.
  uint64_t peak = queue_depth_peak_.load(std::memory_order_relaxed);
  while (depth_after > peak &&
         !queue_depth_peak_.compare_exchange_weak(
             peak, depth_after, std::memory_order_relaxed)) {
  }
  return future;
}

void ServingFrontend::WorkerLoop(int worker_index) {
  // Per-worker jitter stream: deterministic given (seed, worker index), no
  // cross-worker synchronisation.
  Rng jitter(kRetryJitterSeed +
             0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(worker_index + 1));
  while (std::optional<Request> req = queue_.Pop()) {
    ServeRequest(&*req, &jitter);
  }
}

void ServingFrontend::ServeRequest(Request* req, Rng* jitter) {
  const uint64_t n = static_cast<uint64_t>(req->targets.size());
  const auto finish = [&] {
    inflight_targets_.fetch_sub(static_cast<int64_t>(n),
                                std::memory_order_relaxed);
    queue_account_->Release(req->payload_bytes);
  };

  // Queue wait: submit -> this dequeue. One histogram add per request;
  // traced requests also get the span.
  const auto dequeued_at = Clock::now();
  const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           dequeued_at - req->submit_time)
                           .count();
  queue_wait_hist_->Observe(static_cast<double>(wait_ns) * 1e-6);
  if (req->trace != nullptr) {
    req->trace->AddSpan(obs::TraceStage::kQueueWait,
                        obs::TraceNowNs() - static_cast<uint64_t>(wait_ns),
                        static_cast<uint64_t>(wait_ns));
  }

  // Deadline gate at dequeue: a request that expired in the queue must not
  // burn a forward pass.
  if (req->has_deadline && dequeued_at >= req->deadline) {
    finish();
    timed_out_requests_.fetch_add(1, std::memory_order_relaxed);
    targets_timed_out_.fetch_add(n, std::memory_order_relaxed);
    ObserveResolve(req, RequestStatus::kTimeout, 0);
    Resolve(&req->promise, RequestStatus::kTimeout, {},
            Status::DeadlineExceeded("deadline expired while queued"));
    return;
  }

  // Circuit-breaker gate: while open, requests bypass the (presumed sick)
  // engine entirely and degrade.
  const BreakerGate gate = BreakerAdmit();
  if (gate == BreakerGate::kDegrade) {
    finish();
    ServeDegraded(req);
    return;
  }
  const bool probe = gate == BreakerGate::kProbe;

  ScoreOptions opts;
  if (req->has_deadline) opts = ScoreOptions::WithDeadline(req->deadline);
  opts.trace = req->trace;

  // Bounded retry loop: only retryable codes (kUnavailable) are retried,
  // with jittered exponential backoff, never past the deadline.
  FrontendResult result;
  Status st;
  int attempts = 0;
  double last_attempt_ms = 0.0;
  for (;;) {
    ++attempts;
    WallTimer attempt_timer;
    st = req->single
             ? [&] {
                 Score one;
                 Status s = engine_->TryScoreOne(req->targets[0], opts, &one);
                 if (s.ok()) result.scores.assign(1, one);
                 return s;
               }()
             : engine_->TryScoreBatch(req->targets, opts, &result.scores);
    last_attempt_ms = attempt_timer.Millis();
    if (st.ok() || !IsRetryable(st.code()) || attempts > cfg_.max_retries) {
      break;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    double backoff_ms = cfg_.retry_backoff_ms *
                        static_cast<double>(1ULL << std::min(attempts - 1, 20)) *
                        jitter->Uniform(0.5, 1.5);
    if (req->has_deadline) {
      const double left_ms =
          std::chrono::duration<double, std::milli>(req->deadline -
                                                    Clock::now())
              .count();
      if (left_ms <= 0.0) {
        st = Status::DeadlineExceeded("deadline expired between retries");
        break;
      }
      backoff_ms = std::min(backoff_ms, left_ms);
    }
    if (backoff_ms > 0.0) {
      obs::ScopedSpan backoff_span(req->trace, obs::TraceStage::kBackoff);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }

  finish();
  if (st.ok()) {
    // Only the successful attempt's duration feeds the cost model: backoff
    // sleeps and failed attempts would poison the admission estimate.
    ObserveCost(last_attempt_ms / static_cast<double>(n));
    served_requests_.fetch_add(1, std::memory_order_relaxed);
    targets_served_.fetch_add(n, std::memory_order_relaxed);
    if (attempts > 1) retry_successes_.fetch_add(1, std::memory_order_relaxed);
    UpdateStaleScores(result.scores);
    BreakerRecord(/*ok=*/true, probe);
    result.status = RequestStatus::kOk;
    result.attempts = attempts;
    ObserveResolve(req, RequestStatus::kOk, attempts);
    req->promise.set_value(std::move(result));
    return;
  }
  if (st.code() == StatusCode::kDeadlineExceeded) {
    timed_out_requests_.fetch_add(1, std::memory_order_relaxed);
    targets_timed_out_.fetch_add(n, std::memory_order_relaxed);
    // A timeout says nothing about engine health (slow != faulty), so it
    // does not count against the breaker — but a probe that timed out must
    // release the half-open slot, pessimistically re-opening.
    if (probe) BreakerRecord(/*ok=*/false, probe);
    ObserveResolve(req, RequestStatus::kTimeout, attempts);
    Resolve(&req->promise, RequestStatus::kTimeout, {}, std::move(st),
            attempts);
    return;
  }
  failed_requests_.fetch_add(1, std::memory_order_relaxed);
  targets_failed_.fetch_add(n, std::memory_order_relaxed);
  BreakerRecord(/*ok=*/false, probe);
  ObserveResolve(req, RequestStatus::kFailed, attempts);
  Resolve(&req->promise, RequestStatus::kFailed, {}, std::move(st), attempts);
}

void ServingFrontend::ObserveResolve(Request* req, RequestStatus status,
                                     int attempts) {
  request_latency_hist_->Observe(
      std::chrono::duration<double, std::milli>(Clock::now() -
                                                req->submit_time)
          .count());
  if (req->trace != nullptr) {
    obs::Tracer::Global().Finish(req->trace, StatusLabel(status), attempts);
    req->trace = nullptr;
  }
}

void ServingFrontend::ServeDegraded(Request* req) {
  const uint64_t n = static_cast<uint64_t>(req->targets.size());
  FrontendResult result;
  result.status = RequestStatus::kDegraded;
  result.detail = Status::Unavailable(
      "circuit breaker open: serving stale/fallback scores");
  result.scores.reserve(req->targets.size());
  uint64_t stale = 0;
  uint64_t fallback = 0;
  {
    obs::ScopedSpan degraded_span(req->trace, obs::TraceStage::kDegraded);
    std::lock_guard<std::mutex> lock(stale_mu_);
    for (int t : req->targets) {
      auto it = stale_scores_.find(t);
      if (it != stale_scores_.end()) {
        result.scores.push_back(it->second);
        ++stale;
      } else {
        result.scores.push_back(FallbackScore(t));
        ++fallback;
      }
    }
  }
  degraded_stale_.fetch_add(stale, std::memory_order_relaxed);
  degraded_fallback_.fetch_add(fallback, std::memory_order_relaxed);
  degraded_requests_.fetch_add(1, std::memory_order_relaxed);
  targets_degraded_.fetch_add(n, std::memory_order_relaxed);
  ObserveResolve(req, RequestStatus::kDegraded, 0);
  req->promise.set_value(std::move(result));
}

ServingFrontend::BreakerGate ServingFrontend::BreakerAdmit() {
  if (cfg_.breaker_threshold <= 0) return BreakerGate::kServe;
  std::lock_guard<std::mutex> lock(breaker_mu_);
  switch (breaker_state_) {
    case BreakerState::kClosed:
      return BreakerGate::kServe;
    case BreakerState::kOpen: {
      const double open_ms =
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    breaker_opened_at_)
              .count();
      if (open_ms < cfg_.breaker_open_ms) return BreakerGate::kDegrade;
      breaker_state_ = BreakerState::kHalfOpen;
      probe_in_flight_ = true;
      breaker_probes_.fetch_add(1, std::memory_order_relaxed);
      return BreakerGate::kProbe;
    }
    case BreakerState::kHalfOpen:
      if (probe_in_flight_) return BreakerGate::kDegrade;
      probe_in_flight_ = true;
      breaker_probes_.fetch_add(1, std::memory_order_relaxed);
      return BreakerGate::kProbe;
  }
  return BreakerGate::kServe;  // unreachable
}

void ServingFrontend::BreakerRecord(bool ok, bool was_probe) {
  if (cfg_.breaker_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(breaker_mu_);
  if (was_probe) probe_in_flight_ = false;
  if (ok) {
    consecutive_failures_ = 0;
    if (breaker_state_ != BreakerState::kClosed) {
      breaker_state_ = BreakerState::kClosed;
      breaker_recoveries_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (breaker_state_ == BreakerState::kHalfOpen) {
    // The probe failed: snap back to open and restart the cool-down.
    breaker_state_ = BreakerState::kOpen;
    breaker_opened_at_ = Clock::now();
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (breaker_state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= cfg_.breaker_threshold) {
    breaker_state_ = BreakerState::kOpen;
    breaker_opened_at_ = Clock::now();
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
  }
  // kOpen: a request admitted before the trip finished late — the open
  // timer stands.
}

void ServingFrontend::UpdateStaleScores(const std::vector<Score>& scores) {
  std::lock_guard<std::mutex> lock(stale_mu_);
  for (const Score& s : scores) {
    auto it = stale_scores_.find(s.target);
    if (it != stale_scores_.end()) {
      it->second = s;
    } else if (stale_scores_.size() < kStaleScoreCapacity) {
      stale_scores_.emplace(s.target, s);
    }
  }
}

void ServingFrontend::ObserveCost(double ms_per_target) {
  if (cfg_.freeze_cost_model) return;
  std::lock_guard<std::mutex> lock(cost_mu_);
  ms_per_target_ = ms_per_target_ == 0.0
                       ? ms_per_target
                       : kCostEwmaAlpha * ms_per_target +
                             (1.0 - kCostEwmaAlpha) * ms_per_target_;
}

double ServingFrontend::CostEstimate() const {
  std::lock_guard<std::mutex> lock(cost_mu_);
  return ms_per_target_;
}

void ServingFrontend::Close() {
  std::lock_guard<std::mutex> close_lock(close_mu_);
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Fail the backlog explicitly — every future resolves, nothing is
  // dropped silently. Workers see the closed queue and exit once their
  // current request completes.
  std::vector<Request> backlog = queue_.Drain();
  for (Request& req : backlog) {
    const uint64_t n = static_cast<uint64_t>(req.targets.size());
    inflight_targets_.fetch_sub(static_cast<int64_t>(n),
                                std::memory_order_relaxed);
    queue_account_->Release(req.payload_bytes);
    closed_requests_.fetch_add(1, std::memory_order_relaxed);
    targets_closed_.fetch_add(n, std::memory_order_relaxed);
    // Traces of backlogged requests complete as "closed" (the slot must be
    // recycled either way).
    obs::Tracer::Global().Finish(req.trace, "closed", 0);
    Resolve(&req.promise, RequestStatus::kClosed);
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

FrontendStats ServingFrontend::Stats() const {
  FrontendStats s;
  s.submitted_requests = submitted_requests_.load(std::memory_order_relaxed);
  s.served_requests = served_requests_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_latency = shed_latency_.load(std::memory_order_relaxed);
  s.shed_resource = shed_resource_.load(std::memory_order_relaxed);
  s.shed_requests = s.shed_queue_full + s.shed_latency + s.shed_resource;
  s.closed_requests = closed_requests_.load(std::memory_order_relaxed);
  s.timed_out_requests = timed_out_requests_.load(std::memory_order_relaxed);
  s.failed_requests = failed_requests_.load(std::memory_order_relaxed);
  s.degraded_requests = degraded_requests_.load(std::memory_order_relaxed);
  s.targets_submitted = targets_submitted_.load(std::memory_order_relaxed);
  s.targets_served = targets_served_.load(std::memory_order_relaxed);
  s.targets_shed = targets_shed_.load(std::memory_order_relaxed);
  s.targets_closed = targets_closed_.load(std::memory_order_relaxed);
  s.targets_timed_out = targets_timed_out_.load(std::memory_order_relaxed);
  s.targets_failed = targets_failed_.load(std::memory_order_relaxed);
  s.targets_degraded = targets_degraded_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.retry_successes = retry_successes_.load(std::memory_order_relaxed);
  s.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  s.breaker_probes = breaker_probes_.load(std::memory_order_relaxed);
  s.breaker_recoveries = breaker_recoveries_.load(std::memory_order_relaxed);
  s.degraded_stale = degraded_stale_.load(std::memory_order_relaxed);
  s.degraded_fallback = degraded_fallback_.load(std::memory_order_relaxed);
  s.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  s.ms_per_target_estimate = CostEstimate();
  s.engine = engine_->Stats();
  return s;
}

}  // namespace bsg
