#ifndef OTCLEAN_CORE_FAULT_INJECTOR_H_
#define OTCLEAN_CORE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstddef>
#include <string>

#include "common/status.h"

namespace otclean::core {

/// The failure edges the injector can force. Each site is visited by
/// exactly one layer of the stack, so "fire at the Nth visit" is a
/// deterministic statement about that layer's call sequence.
enum class FaultSite {
  /// FastOTClean's kernel-allocation checkpoint throws std::bad_alloc —
  /// caught at the repair boundary and surfaced as kResourceExhausted.
  kAlloc = 0,
  /// The solve's freshly built kernel is replaced by the one an all-NaN
  /// cost builds — *after* the build's finite-cost check passed — so the
  /// NaN reaches the solve like a real numeric blow-up would (dense paths
  /// then lose all plan mass: kInternal). A poisoned solve bypasses the
  /// solve cache. Visited once per FastOTClean solve.
  kKernelNan,
  /// A ThreadPool participant sleeps before executing a chunk (install
  /// via InstallPoolDelayHook). Not a failure by itself — compose with a
  /// deadline to force kDeadlineExceeded mid-dispatch.
  kWorkerDelay,
  /// SolveCache::InsertKernel fails to store: the solve proceeds on its
  /// privately-built kernel and the cache ends the request with no entry —
  /// never a partial one.
  kCacheInsert,
};

inline constexpr size_t kNumFaultSites = 4;

const char* FaultSiteName(FaultSite site);

/// A deterministic fault-injection harness. Tests (and the CLI, via the
/// OTCLEAN_FAULTS environment variable) arm sites to fire at the Nth
/// visit; the stack consults the injector only where an options struct or
/// setter explicitly carries it, so un-instrumented runs pay nothing.
///
/// Spec grammar (OTCLEAN_FAULTS and Parse):
///   spec  := arm ("," arm)*
///   arm   := site "@" N ["+"]            N >= 1, 1-based visit index
///   site  := "alloc" | "kernel-nan" | "worker-delay" | "cache-insert"
/// `site@N` fires exactly at the Nth visit; `site@N+` fires at every visit
/// from the Nth on (sticky). Example: OTCLEAN_FAULTS="alloc@2,cache-insert@1+"
///
/// Thread safety: visit counters are atomic (kWorkerDelay is hit from pool
/// workers concurrently); arming is not — arm before dispatching work.
/// Under the TSA regime (common/thread_annotations.h) this class carries
/// no capability: `hits_` is lock-free by design (ShouldFire sits on the
/// pool's per-chunk hot path, where a mutex would serialize the workers it
/// instruments), and `arms_`/`delay_millis_` are frozen before any
/// concurrent reader exists — dispatching instrumented work publishes them
/// via the thread-creation / SetChunkHook release edge. Arm/ShouldFire
/// overlapping is a misuse TSan would flag, not a supported schedule.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `site` to fire at the `nth` visit (1-based); every visit from
  /// the nth on when `sticky`.
  void Arm(FaultSite site, size_t nth, bool sticky = false);

  /// Records a visit to `site` and returns whether the fault fires there.
  bool ShouldFire(FaultSite site);

  /// Visits recorded so far at `site`.
  size_t hits(FaultSite site) const;

  /// Parses the OTCLEAN_FAULTS grammar into `out` (arms accumulate onto
  /// whatever is already armed). InvalidArgument on malformed specs.
  static Status Parse(const std::string& spec, FaultInjector* out);

  /// Installs the process-wide ThreadPool chunk hook servicing
  /// kWorkerDelay: each firing visit sleeps `delay_millis`. The injector
  /// must outlive the hook; uninstall with ClearPoolDelayHook once the
  /// instrumented work has drained.
  void InstallPoolDelayHook(size_t delay_millis = 25);
  static void ClearPoolDelayHook();

  /// Sleep applied per firing kWorkerDelay visit (set by
  /// InstallPoolDelayHook).
  size_t worker_delay_millis() const { return delay_millis_; }

 private:
  struct SiteArm {
    bool armed = false;
    size_t nth = 0;
    bool sticky = false;
  };

  /// Written by Arm/Parse strictly before instrumented work is dispatched;
  /// read concurrently (and lock-free) by ShouldFire afterwards.
  SiteArm arms_[kNumFaultSites];
  std::atomic<size_t> hits_[kNumFaultSites] = {};
  /// Same freeze-then-read contract as arms_ (set by InstallPoolDelayHook,
  /// read by pool workers through the chunk hook).
  size_t delay_millis_ = 25;
};

}  // namespace otclean::core

#endif  // OTCLEAN_CORE_FAULT_INJECTOR_H_
