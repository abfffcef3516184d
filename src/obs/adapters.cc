#include "obs/adapters.h"

#include <utility>
#include <vector>

#include "io/checkpoint.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/frontend.h"
#include "util/buffer_pool.h"
#include "util/fault.h"
#include "util/resource_governor.h"

namespace bsg {
namespace obs {

namespace {

void Emit(std::vector<GaugeSample>* out, const std::string& prefix,
          const char* name, double value) {
  out->push_back({prefix + "." + name, value});
}

void Emit(std::vector<GaugeSample>* out, const std::string& prefix,
          const char* name, uint64_t value) {
  Emit(out, prefix, name, static_cast<double>(value));
}

void EmitCache(std::vector<GaugeSample>* out, const std::string& prefix,
               const SubgraphCacheStats& c) {
  Emit(out, prefix, "lookups", c.lookups);
  Emit(out, prefix, "hits", c.hits);
  Emit(out, prefix, "misses", c.misses);
  Emit(out, prefix, "inserts", c.inserts);
  Emit(out, prefix, "evictions", c.evictions);
  Emit(out, prefix, "version_evictions", c.version_evictions);
  Emit(out, prefix, "coalesced_misses", c.coalesced_misses);
  Emit(out, prefix, "flight_failures", c.flight_failures);
  Emit(out, prefix, "admit_rejects_cost", c.admit_rejects_cost);
  Emit(out, prefix, "admit_rejects_pressure", c.admit_rejects_pressure);
  Emit(out, prefix, "admit_rejects_stale", c.admit_rejects_stale);
  Emit(out, prefix, "shrinks", c.shrinks);
  Emit(out, prefix, "shrink_bytes_released", c.shrink_bytes_released);
  Emit(out, prefix, "hit_cost_saved_us", c.hit_cost_saved_us);
  Emit(out, prefix, "entries", c.entries);
  Emit(out, prefix, "resident_bytes", c.resident_bytes);
  Emit(out, prefix, "hit_rate", c.HitRate());
}

GaugeRegistration Register(
    std::function<void(std::vector<GaugeSample>*)> fn) {
  return GaugeRegistration(
      MetricsRegistry::Global().RegisterProvider(std::move(fn)));
}

}  // namespace

GaugeRegistration RegisterFrontendMetrics(const ServingFrontend* frontend,
                                          const std::string& prefix) {
  return Register([frontend, prefix](std::vector<GaugeSample>* out) {
    FrontendStats s = frontend->Stats();
    Emit(out, prefix, "submitted_requests", s.submitted_requests);
    Emit(out, prefix, "served_requests", s.served_requests);
    Emit(out, prefix, "shed_requests", s.shed_requests);
    Emit(out, prefix, "shed_queue_full", s.shed_queue_full);
    Emit(out, prefix, "shed_latency", s.shed_latency);
    Emit(out, prefix, "shed_resource", s.shed_resource);
    Emit(out, prefix, "closed_requests", s.closed_requests);
    Emit(out, prefix, "timed_out_requests", s.timed_out_requests);
    Emit(out, prefix, "failed_requests", s.failed_requests);
    Emit(out, prefix, "degraded_requests", s.degraded_requests);
    Emit(out, prefix, "accounted_requests", s.AccountedRequests());
    Emit(out, prefix, "targets_submitted", s.targets_submitted);
    Emit(out, prefix, "targets_served", s.targets_served);
    Emit(out, prefix, "targets_shed", s.targets_shed);
    Emit(out, prefix, "targets_closed", s.targets_closed);
    Emit(out, prefix, "targets_timed_out", s.targets_timed_out);
    Emit(out, prefix, "targets_failed", s.targets_failed);
    Emit(out, prefix, "targets_degraded", s.targets_degraded);
    Emit(out, prefix, "accounted_targets", s.AccountedTargets());
    Emit(out, prefix, "retries", s.retries);
    Emit(out, prefix, "retry_successes", s.retry_successes);
    Emit(out, prefix, "breaker_trips", s.breaker_trips);
    Emit(out, prefix, "breaker_probes", s.breaker_probes);
    Emit(out, prefix, "breaker_recoveries", s.breaker_recoveries);
    Emit(out, prefix, "degraded_stale", s.degraded_stale);
    Emit(out, prefix, "degraded_fallback", s.degraded_fallback);
    Emit(out, prefix, "queue_depth_peak", s.queue_depth_peak);
    Emit(out, prefix, "shed_rate", s.ShedRate());
    Emit(out, prefix, "ms_per_target_estimate", s.ms_per_target_estimate);
  });
}

GaugeRegistration RegisterEngineMetrics(const DetectionEngine* engine,
                                        const std::string& prefix,
                                        const std::string& cache_prefix,
                                        const std::string& stacker_prefix) {
  return Register([engine, prefix, cache_prefix,
                   stacker_prefix](std::vector<GaugeSample>* out) {
    EngineStats s = engine->Stats();
    Emit(out, prefix, "single_requests", s.single_requests);
    Emit(out, prefix, "batch_requests", s.batch_requests);
    Emit(out, prefix, "targets_scored", s.targets_scored);
    Emit(out, prefix, "batches_run", s.batches_run);
    Emit(out, prefix, "deadline_failures", s.deadline_failures);
    Emit(out, prefix, "score_failures", s.score_failures);
    Emit(out, prefix, "graph_swaps", s.graph_swaps);
    Emit(out, prefix, "graph_version",
         static_cast<double>(engine->graph_version()));
    Emit(out, prefix, "pool_trimmed_bytes", s.pool_trimmed_bytes);
    Emit(out, prefix, "pool_acquires", s.pool_acquires);
    Emit(out, prefix, "pool_hits", s.pool_hits);
    Emit(out, prefix, "pool_hit_rate", s.PoolHitRate());
    EmitCache(out, cache_prefix, s.cache);
    Emit(out, stacker_prefix, "batches_stacked", s.stacker.batches_stacked);
    Emit(out, stacker_prefix, "carcass_reuses", s.stacker.carcass_reuses);
    Emit(out, stacker_prefix, "weights_f32_reuses",
         s.stacker.weights_f32_reuses);
  });
}

GaugeRegistration RegisterBufferPoolMetrics(const std::string& prefix) {
  return Register([prefix](std::vector<GaugeSample>* out) {
    BufferPoolStats s = BufferPool::Global().Stats();
    Emit(out, prefix, "acquires", s.acquires);
    Emit(out, prefix, "hits", s.hits);
    Emit(out, prefix, "misses", s.misses);
    Emit(out, prefix, "releases", s.releases);
    Emit(out, prefix, "trims", s.trims);
    Emit(out, prefix, "trimmed_bytes", s.trimmed_bytes);
    Emit(out, prefix, "free_slabs", s.free_slabs);
    Emit(out, prefix, "free_bytes", s.free_bytes);
    Emit(out, prefix, "live_bytes", s.live_bytes);
    Emit(out, prefix, "lock_contention", s.lock_contention);
    Emit(out, prefix, "hit_rate", s.HitRate());
  });
}

GaugeRegistration RegisterFaultMetrics(const std::string& prefix) {
  return Register([prefix](std::vector<GaugeSample>* out) {
    FaultInjector& inj = FaultInjector::Global();
    Emit(out, prefix, "armed", inj.armed() ? 1.0 : 0.0);
    for (const FaultInjector::SiteStats& site : inj.Stats()) {
      std::string site_prefix = prefix + "." + site.site;
      Emit(out, site_prefix, "evaluations", site.evaluations);
      Emit(out, site_prefix, "fires", site.fires);
    }
  });
}

GaugeRegistration RegisterCheckpointIoMetrics(const std::string& prefix) {
  return Register([prefix](std::vector<GaugeSample>* out) {
    CheckpointIoStats s = GetCheckpointIoStats();
    Emit(out, prefix, "saves_ok", s.saves_ok);
    Emit(out, prefix, "save_failures", s.save_failures);
    Emit(out, prefix, "loads_ok", s.loads_ok);
    Emit(out, prefix, "load_failures", s.load_failures);
    Emit(out, prefix, "bak_writes", s.bak_writes);
    Emit(out, prefix, "bak_recoveries", s.bak_recoveries);
  });
}

GaugeRegistration RegisterGovernorMetrics(const std::string& prefix) {
  return Register([prefix](std::vector<GaugeSample>* out) {
    ResourceGovernorStats s = ResourceGovernor::Global().Stats();
    Emit(out, prefix, "budget_bytes", s.budget_bytes);
    Emit(out, prefix, "soft_bytes", s.soft_bytes);
    Emit(out, prefix, "hard_bytes", s.hard_bytes);
    Emit(out, prefix, "total_bytes", s.total_bytes);
    Emit(out, prefix, "peak_total_bytes", s.peak_total_bytes);
    Emit(out, prefix, "pressure", static_cast<double>(s.pressure));
    Emit(out, prefix, "soft_transitions", s.soft_transitions);
    Emit(out, prefix, "hard_transitions", s.hard_transitions);
    Emit(out, prefix, "recoveries", s.recoveries);
    Emit(out, prefix, "reclaim_invocations", s.reclaim_invocations);
    Emit(out, prefix, "reclaimed_bytes", s.reclaimed_bytes);
    Emit(out, prefix, "refusals", s.refusals);
    Emit(out, prefix, "injected_refusals", s.injected_refusals);
    for (const GovernorAccountStats& a : s.accounts) {
      std::string account_prefix = prefix + ".account." + a.name;
      Emit(out, account_prefix, "resident_bytes", a.resident_bytes);
      Emit(out, account_prefix, "peak_bytes", a.peak_bytes);
      Emit(out, account_prefix, "charges", a.charges);
      Emit(out, account_prefix, "releases", a.releases);
      Emit(out, account_prefix, "refusals", a.refusals);
    }
  });
}

GaugeRegistration RegisterTracerMetrics(const std::string& prefix) {
  return Register([prefix](std::vector<GaugeSample>* out) {
    Tracer& tracer = Tracer::Global();
    TracerStats s = tracer.Stats();
    Emit(out, prefix, "sample_every",
         static_cast<double>(tracer.sample_every()));
    Emit(out, prefix, "sampled", s.sampled);
    Emit(out, prefix, "completed", s.completed);
    Emit(out, prefix, "abandoned", s.abandoned);
    Emit(out, prefix, "dropped_no_slot", s.dropped_no_slot);
    Emit(out, prefix, "truncated_spans", s.truncated_spans);
  });
}

}  // namespace obs
}  // namespace bsg
