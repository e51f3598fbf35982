#ifndef OTCLEAN_COMMON_EXEC_CONTEXT_H_
#define OTCLEAN_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <string>

#include "common/cancellation.h"
#include "common/status.h"

namespace otclean {

namespace core {
class FaultInjector;
}  // namespace core

/// The per-request execution state a repair carries through every solver
/// layer — FastOTClean's outer loop, each Sinkhorn solve, the LP engines —
/// passed beside the algorithmic options instead of copied into each of
/// them. The caller (or the RepairScheduler, once per job) builds one and
/// every entry point takes it as a trailing `const ExecContext& ctx = {}`;
/// the default context never stops and injects no faults.
///
/// Everything here is borrowed and must outlive the call. None of it
/// changes what an unstopped solve computes: the token and deadline can
/// only abort, and the fault injector is inert unless armed.
struct ExecContext {
  /// Cooperative cancellation (common/cancellation.h). Polled once per
  /// engine-loop iteration, ε-annealing stage, FastOTClean outer step and
  /// LP pivot, and — through the ThreadPool stop flag — between chunk
  /// executions of pooled kernel dispatches. A firing aborts the request
  /// with kCancelled.
  const CancellationToken* cancel = nullptr;
  /// Monotonic wall deadline, polled at the same points; expiry aborts
  /// with kDeadlineExceeded. Infinite by default.
  Deadline deadline;
  /// Fault-injection harness (core/fault_injector.h), consulted only at
  /// its named sites. Null — the production configuration — costs nothing.
  core::FaultInjector* faults = nullptr;

  /// The token's raw flag for ThreadPool::ScopedStopFlag (null when no
  /// token is set).
  const std::atomic<bool>* stop_flag() const {
    return cancel != nullptr ? cancel->flag() : nullptr;
  }
};

/// The one stop-check every cooperative layer shares: cancellation wins
/// over deadline expiry, and the returned message names the checking layer
/// so an aborted batch job reads "RunSinkhornScaling: cancelled", not just
/// "cancelled". Costs one atomic load (plus a clock read only when a
/// finite deadline is set) on the non-aborting path.
inline Status CheckStop(const ExecContext& ctx, const char* where) {
  if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
    return Status::Cancelled(std::string(where) + ": cancelled by caller");
  }
  if (ctx.deadline.expired()) {
    return Status::DeadlineExceeded(std::string(where) + ": deadline exceeded");
  }
  return Status::OK();
}

}  // namespace otclean

#endif  // OTCLEAN_COMMON_EXEC_CONTEXT_H_
