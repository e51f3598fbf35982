// Micro-bench for the TransportKernel engine: serial vs multi-threaded
// Sinkhorn throughput on dense and truncated-sparse kernels.
//
// Reports per-configuration wall time, iterations/second, and the speedup
// over the single-thread baseline. Also cross-checks that every thread
// count produced the identical plan (the engine's bit-compatibility
// guarantee) — a silent mismatch fails the run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "linalg/thread_pool.h"

using namespace otclean;

namespace {

linalg::Matrix RandomCost(size_t m, size_t n, Rng& rng) {
  linalg::Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble() * 3.0;
  return cost;
}

linalg::Vector RandomMarginal(size_t n, Rng& rng) {
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.05 + rng.NextDouble();
  v.Normalize();
  return v;
}

struct RunStats {
  double seconds = 0.0;
  size_t iterations = 0;
  linalg::Matrix plan;
};

RunStats TimeDense(const linalg::Matrix& cost, const linalg::Vector& p,
                   const linalg::Vector& q, size_t threads) {
  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.relaxed = true;
  opts.lambda = 5.0;
  opts.tolerance = 1e-9;
  opts.num_threads = threads;
  WallTimer timer;
  auto r = ot::RunSinkhorn(cost, p, q, opts).value();
  RunStats stats;
  stats.seconds = timer.ElapsedSeconds();
  stats.iterations = r.iterations;
  stats.plan = std::move(r.plan);
  return stats;
}

RunStats TimeSparse(const linalg::Matrix& cost, const linalg::Vector& p,
                    const linalg::Vector& q, size_t threads) {
  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.relaxed = true;
  opts.lambda = 5.0;
  opts.tolerance = 1e-9;
  opts.num_threads = threads;
  WallTimer timer;
  auto r = ot::RunSinkhornSparse(cost, p, q, opts, /*kernel_cutoff=*/1e-6)
               .value();
  RunStats stats;
  stats.seconds = timer.ElapsedSeconds();
  stats.iterations = r.iterations;
  stats.plan = r.plan.ToDense();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::FullScale(argc, argv);
  const size_t n = full ? 2000 : 600;
  const size_t hw = linalg::ResolveThreadCount(0);

  bench::PrintHeader(
      "TransportKernel: serial vs row-blocked parallel Sinkhorn",
      "near-linear kernel speedup with cores; identical plans at any "
      "thread count");
  std::printf("# problem: %zux%zu, hardware threads: %zu\n", n, n, hw);

  Rng rng(7);
  const linalg::Matrix cost = RandomCost(n, n, rng);
  const linalg::Vector p = RandomMarginal(n, rng);
  const linalg::Vector q = RandomMarginal(n, rng);

  bool identical = true;
  std::printf("%-8s %-10s %-12s %-12s %-10s\n", "kernel", "threads",
              "seconds", "iters_per_s", "speedup");
  // Always include 2 threads (even on a 1-core box) so the identical-plan
  // cross-check exercises the parallel path everywhere.
  std::vector<size_t> thread_counts{1, 2};
  if (hw > 2) thread_counts.push_back(hw);
  for (const bool sparse : {false, true}) {
    RunStats base;
    for (size_t threads : thread_counts) {
      const RunStats stats = sparse ? TimeSparse(cost, p, q, threads)
                                    : TimeDense(cost, p, q, threads);
      if (threads == 1) {
        base = stats;
      } else if (!stats.plan.ApproxEquals(base.plan, 0.0)) {
        identical = false;
      }
      std::printf("%-8s %-10zu %-12.3f %-12.0f %-10.2f\n",
                  sparse ? "sparse" : "dense", threads, stats.seconds,
                  static_cast<double>(stats.iterations) /
                      (stats.seconds > 0.0 ? stats.seconds : 1e-9),
                  threads == 1 ? 1.0 : base.seconds / stats.seconds);
    }
  }
  std::printf("# plans identical across thread counts = %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
