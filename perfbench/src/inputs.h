#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/ci_constraint.h"
#include "core/repair.h"
#include "dataset/table.h"

namespace perfbench {

namespace core = otclean::core;
namespace dataset = otclean::dataset;
using otclean::Result;
using otclean::Status;

/// One repair request as a client hands it over: CSV bytes, the constraint
/// to enforce and the options to enforce it with.
struct Request {
  size_t table = 0;  ///< index into Inputs::csvs
  core::CiConstraint constraint;
  core::RepairOptions options;
  /// Requests with one key are identical, so their outputs must be too.
  /// On serve-mixed the key is also the job id the seed derives from.
  uint64_t key = 0;
  /// True when later requests of the run reuse this key.
  bool repeats = false;
};

/// Everything one run sends, generated from the workload seed.
struct Inputs {
  uint64_t seed = 0;
  std::vector<std::string> csvs;  ///< distinct input tables, as CSV bytes
  std::vector<core::CiConstraint> constraints;  ///< one per table
  std::vector<std::string> labels;  ///< generator call behind each table
  /// car-noise and compas-fair: request k is cycle[k % cycle.size()].
  std::vector<Request> cycle;
  /// The first `quality_requests` requests (car-noise and compas-fair: one
  /// per table) give the run's accuracy metrics, so those do not depend on
  /// how many requests fit in the run.
  size_t quality_requests = 0;
};

/// Lanes of the serve-mixed scheduler pool, its executors and its clients.
inline constexpr size_t kServeInFlight = 2;

/// The workload names the benchmark accepts. "car-noise-full" is the
/// uncapped car-noise request (the ROADMAP baseline); it takes over a
/// minute per request, so the timed workloads do not include it.
const std::vector<std::string>& WorkloadNames();

/// Builds the inputs of `workload` for `seed`. `threads` is the kernel
/// thread count of the single-request workloads (0 = all cores).
Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                          size_t threads);

/// Request `k` of the run's stream.
Request MakeRequest(const Inputs& inputs, size_t k);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
