// Deterministic fault injection for robustness testing.
//
// Production code marks its trust boundaries with BSG_FAULT("site.name")
// — checkpoint IO, subgraph builds, cache fills, queue pushes, forward
// passes. Disarmed (the default), the macro is one relaxed atomic load and
// a predicted-not-taken branch, so the hooks are free on the warm path
// (per-check cost frozen in BENCH_pr8.json; test_fault's
// FaultTrigger.DisarmedMacroNeverFires asserts the fast path never reaches
// the injector). Armed via FaultInjector::Configure with a spec string,
// each evaluation of a site consults its trigger:
//
//   spec    :=  entry (';' entry)*
//   entry   :=  site ':' field (',' field)*
//   field   :=  'p=' F          fire each evaluation with probability F,
//                               decided by a hash of (seed, site, index) —
//                               deterministic, thread-count independent
//            |  'nth=' N        fire exactly on the Nth evaluation (1-based)
//            |  'every=' N      fire on every Nth evaluation
//            |  'first=' N      fire on evaluations 1..N
//            |  'limit=' N      stop firing after N fires
//            |  'delay_ms=' F   sleep F milliseconds on each fire
//            |  'fail=' 0|1     whether a fire reports failure (default 1;
//                               fail=0 + delay_ms makes a slowdown-only
//                               fault for deadline tests)
//
// Exactly one of p/nth/every/first per entry. Example:
//
//   "cache.fill:p=0.2;engine.forward:first=2,delay_ms=5"
//
// Sites are enumerated in kFaultSiteNames so a chaos soak can assert that
// every registered boundary actually fired. Fire decisions are
// per-evaluation-index deterministic given (spec, seed): two runs that
// evaluate a site the same number of times in the same order see the same
// fire pattern. Per-site evaluation/fire counters are exposed via Stats().
//
// What a fire *means* is defined at each site: checkpoint sites simulate
// the corresponding syscall failing or the file corrupting, cache/build/
// forward sites throw or return Status::Unavailable (retryable),
// frontend.push simulates a full queue (shed). Faults never fire while
// disarmed, so production binaries pay nothing; BSG_DISABLE_FAULT_INJECTION
// compiles the macro to `false` outright.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace bsg {

namespace fault {

// Canonical injection-site names. Sites use these constants (never ad-hoc
// string literals) so Configure can reject typo'd specs against the
// registry below.
inline constexpr const char* kCkptWriteOpen = "ckpt.write.open";
inline constexpr const char* kCkptWriteShort = "ckpt.write.short";
inline constexpr const char* kCkptWriteRename = "ckpt.write.rename";
inline constexpr const char* kCkptReadOpen = "ckpt.read.open";
inline constexpr const char* kCkptReadCorrupt = "ckpt.read.corrupt";
inline constexpr const char* kSubgraphBuild = "subgraph.build";
inline constexpr const char* kCacheFill = "cache.fill";
inline constexpr const char* kFrontendPush = "frontend.push";
inline constexpr const char* kEngineForward = "engine.forward";
/// A fire simulates ResourceGovernor::TryCharge hitting the hard
/// watermark, so the budget-exhaustion paths (cache admission refusal,
/// front-end shed_resource) are drillable without real memory pressure.
inline constexpr const char* kGovernorCharge = "governor.charge";

/// Every registered site, for exhaustive chaos soaks.
inline constexpr const char* kAllSites[] = {
    kCkptWriteOpen, kCkptWriteShort, kCkptWriteRename, kCkptReadOpen,
    kCkptReadCorrupt, kSubgraphBuild, kCacheFill, kFrontendPush,
    kEngineForward, kGovernorCharge,
};
inline constexpr size_t kNumSites = sizeof(kAllSites) / sizeof(kAllSites[0]);

}  // namespace fault

/// Process-wide deterministic fault injector (one global instance — the
/// sites it drives are scattered across layers that share no object).
class FaultInjector {
 public:
  /// Per-site observability snapshot.
  struct SiteStats {
    const char* site = nullptr;
    uint64_t evaluations = 0;  ///< times the armed site was reached
    uint64_t fires = 0;        ///< times it injected
  };

  static FaultInjector& Global();

  /// Parses `spec` (see the file comment), resets all per-site counters and
  /// trigger state, and arms the injector. An empty spec arms nothing (and
  /// is an error — use Disarm()). Unknown site names, malformed fields,
  /// missing/duplicate triggers all return kInvalidArgument and leave the
  /// injector disarmed.
  Status Configure(const std::string& spec, uint64_t seed = 0);

  /// Disarms every site (the macro fast path goes back to one load).
  /// Counters survive until the next Configure.
  void Disarm();

  bool armed() const;

  /// Counter snapshot for every registered site (order = fault::kAllSites).
  std::vector<SiteStats> Stats() const;
  uint64_t fires(const char* site) const;
  uint64_t evaluations(const char* site) const;

  /// The macro's slow path: counts the evaluation, applies the site's
  /// trigger, sleeps through any configured delay, and returns whether the
  /// site should fail. Public so tests can drive sites directly.
  bool Evaluate(const char* site);

 private:
  FaultInjector() = default;
};

/// True while any site is configured; read by the BSG_FAULT fast path.
extern std::atomic<bool> g_fault_armed;

}  // namespace bsg

/// `if (BSG_FAULT(fault::kCacheFill)) { ...injected failure... }`
/// Disarmed cost: one relaxed load + one predicted branch.
#ifdef BSG_DISABLE_FAULT_INJECTION
#define BSG_FAULT(site) false
#else
#define BSG_FAULT(site)                                                \
  (__builtin_expect(                                                   \
       ::bsg::g_fault_armed.load(std::memory_order_acquire), 0) &&     \
   ::bsg::FaultInjector::Global().Evaluate(site))
#endif
