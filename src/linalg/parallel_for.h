#ifndef OTCLEAN_LINALG_PARALLEL_FOR_H_
#define OTCLEAN_LINALG_PARALLEL_FOR_H_

#include <algorithm>
#include <cstddef>

namespace otclean::linalg {

/// Minimum per-chunk work (loop indices) below which dispatching to pool
/// workers costs more than it saves; ranges smaller than this run inline.
inline constexpr size_t kMinParallelGrain = 256;

/// Minimum scalar operations per worker before threading pays for the
/// dispatch. Callers whose loop indices carry non-unit work (e.g. one
/// matrix row of n multiplies) should derive their grain from this.
inline constexpr size_t kMinParallelWork = 2048;

/// Index grain for a loop whose every index costs ~`work_per_index` scalar
/// ops: enough indices per worker to clear kMinParallelWork.
inline size_t GrainForWork(size_t work_per_index) {
  if (work_per_index == 0) work_per_index = 1;
  const size_t grain = kMinParallelWork / work_per_index;
  return grain == 0 ? 1 : grain;
}

/// The contiguous-chunk decomposition ParallelFor (linalg/thread_pool.h)
/// runs, whether pool workers or the calling thread execute the chunks.
/// Computing it in exactly one place is what makes pooled and serial runs
/// bit-identical: chunk boundaries depend only on (n, threads, grain),
/// never on who runs the chunks.
struct ChunkPlan {
  size_t chunk = 0;       ///< indices per chunk (chunk c = [c·chunk, …)).
  size_t num_chunks = 0;  ///< non-empty chunks covering [0, n).
};

inline ChunkPlan PlanChunks(size_t n, size_t threads, size_t grain) {
  ChunkPlan plan;
  if (n == 0) return plan;
  if (grain == 0) grain = 1;
  // Cap workers so none gets less than `grain` indices.
  threads = std::min(threads, std::max<size_t>(1, n / grain));
  plan.chunk = threads <= 1 ? n : (n + threads - 1) / threads;
  plan.num_chunks = (n + plan.chunk - 1) / plan.chunk;
  return plan;
}

/// Rows per reduction block. Fixed independently of the thread count so
/// that blocked reductions add the same partial sums in the same order no
/// matter how many threads run — threads=1 and threads=N are bit-identical.
inline constexpr size_t kReduceBlockRows = 256;

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_PARALLEL_FOR_H_
