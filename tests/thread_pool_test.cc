#include "linalg/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "linalg/transport_kernel.h"
#include "ot/sinkhorn.h"

namespace otclean::linalg {
namespace {

Matrix RandomCost(size_t m, size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble() * 3.0;
  return cost;
}

Vector RandomMarginal(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.05 + rng.NextDouble();
  v.Normalize();
  return v;
}

TEST(ThreadPoolTest, PooledParallelForCoversEveryIndexExactlyOnce) {
  for (size_t threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    ParallelFor(
        hits.size(), pool.num_threads(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++hits[i];
        },
        /*grain=*/1, &pool);
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyDispatches) {
  // The whole point of the pool: one construction, thousands of dispatches
  // (a Sinkhorn run's worth). Each dispatch must see all chunks complete
  // before the next starts.
  ThreadPool pool(4);
  std::vector<int> data(512, 0);
  for (int round = 0; round < 2000; ++round) {
    ParallelFor(
        data.size(), pool.num_threads(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++data[i];
        },
        /*grain=*/1, &pool);
  }
  for (int v : data) EXPECT_EQ(v, 2000);
}

TEST(ThreadPoolTest, PooledBlockedReduceMatchesSerial) {
  std::vector<double> values(10000);
  Rng rng(99);
  for (double& v : values) v = rng.NextDouble() - 0.5;
  auto block_sum = [&](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) s += values[i];
    return s;
  };
  const double serial = BlockedReduce(values.size(), 1, block_sum);
  for (size_t threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(BlockedReduce(values.size(), threads, block_sum, &pool), serial);
  }
}

TEST(ThreadPoolTest, PooledKernelPrimitivesBitIdenticalToSpawned) {
  const size_t m = 137, n = 151;
  const Matrix cost = RandomCost(m, n, 41);
  const Vector u = RandomMarginal(m, 42);
  const Vector v = RandomMarginal(n, 43);

  // Without a pool the kernel runs the same 3-way chunk decomposition
  // serially on the calling thread.
  const DenseTransportKernel spawned(cost.GibbsKernel(0.3), 3);
  ThreadPool pool(3);
  const DenseTransportKernel pooled(cost.GibbsKernel(0.3), 3, &pool);

  Vector kv_s, kv_p, ktu_s, ktu_p;
  spawned.Apply(v, kv_s);
  pooled.Apply(v, kv_p);
  spawned.ApplyTranspose(u, ktu_s);
  pooled.ApplyTranspose(u, ktu_p);
  for (size_t i = 0; i < m; ++i) EXPECT_EQ(kv_p[i], kv_s[i]);
  for (size_t j = 0; j < n; ++j) EXPECT_EQ(ktu_p[j], ktu_s[j]);
  EXPECT_TRUE(pooled.ScaleToPlan(u, v).ApproxEquals(spawned.ScaleToPlan(u, v),
                                                    0.0));
  EXPECT_EQ(pooled.TransportCost(cost, u, v), spawned.TransportCost(cost, u, v));
}

TEST(ThreadPoolTest, PooledSinkhornBitIdenticalToSerialAtAnyThreadCount) {
  const Matrix cost = RandomCost(143, 131, 71);
  const Vector p = RandomMarginal(143, 72);
  const Vector q = RandomMarginal(131, 73);
  ot::SinkhornOptions serial_opts;
  serial_opts.epsilon = 0.1;
  serial_opts.relaxed = true;
  serial_opts.lambda = 5.0;
  serial_opts.tolerance = 1e-8;
  serial_opts.num_threads = 1;
  const auto serial = ot::RunSinkhorn(cost, p, q, serial_opts).value();
  const auto sparse_serial =
      ot::RunSinkhornSparse(cost, p, q, serial_opts, 1e-5).value();

  for (size_t threads : {2, 3, 5}) {
    ThreadPool pool(threads);
    ot::SinkhornOptions pooled_opts = serial_opts;
    pooled_opts.num_threads = threads;
    pooled_opts.thread_pool = &pool;

    const auto pooled = ot::RunSinkhorn(cost, p, q, pooled_opts).value();
    EXPECT_EQ(pooled.iterations, serial.iterations);
    EXPECT_TRUE(pooled.plan.ApproxEquals(serial.plan, 0.0));
    EXPECT_EQ(pooled.transport_cost, serial.transport_cost);

    const auto sparse_pooled =
        ot::RunSinkhornSparse(cost, p, q, pooled_opts, 1e-5).value();
    EXPECT_EQ(sparse_pooled.iterations, sparse_serial.iterations);
    EXPECT_TRUE(sparse_pooled.plan.ToDense().ApproxEquals(
        sparse_serial.plan.ToDense(), 0.0));
    EXPECT_EQ(sparse_pooled.transport_cost, sparse_serial.transport_cost);
  }
}

TEST(ThreadPoolTest, ConcurrentDispatchersEachSeeTheirOwnChunksComplete) {
  // Multiple threads drive the same pool at once (the RepairScheduler's
  // sharing model). Every dispatcher's ParallelFor must cover exactly its
  // own index range every round, no matter how workers interleave across
  // the live jobs.
  ThreadPool pool(4);
  constexpr size_t kDispatchers = 4;
  constexpr size_t kRounds = 500;
  constexpr size_t kIndices = 512;
  std::vector<std::vector<int>> data(kDispatchers,
                                     std::vector<int>(kIndices, 0));
  std::vector<std::thread> dispatchers;
  for (size_t d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&, d] {
      for (size_t round = 0; round < kRounds; ++round) {
        ParallelFor(
            kIndices, pool.num_threads(),
            [&, d](size_t begin, size_t end) {
              for (size_t i = begin; i < end; ++i) ++data[d][i];
            },
            /*grain=*/1, &pool);
      }
    });
  }
  for (std::thread& t : dispatchers) t.join();
  for (const auto& lane : data) {
    for (int v : lane) EXPECT_EQ(v, kRounds);
  }
}

TEST(ThreadPoolTest, SharedPoolUnderConcurrentDispatchersMatchesDedicated) {
  // Two Sinkhorn solves racing on ONE pool must produce exactly the
  // results they produce on dedicated pools: the chunk decomposition of a
  // dispatch depends only on (n, threads, grain), never on pool traffic.
  const Matrix cost_a = RandomCost(143, 131, 71);
  const Vector p_a = RandomMarginal(143, 72);
  const Vector q_a = RandomMarginal(131, 73);
  const Matrix cost_b = RandomCost(97, 111, 74);
  const Vector p_b = RandomMarginal(97, 75);
  const Vector q_b = RandomMarginal(111, 76);

  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.relaxed = true;
  opts.lambda = 5.0;
  opts.tolerance = 1e-8;
  opts.num_threads = 3;

  ot::SinkhornResult dedicated_a, dedicated_b;
  {
    ThreadPool pool_a(3), pool_b(3);
    ot::SinkhornOptions oa = opts, ob = opts;
    oa.thread_pool = &pool_a;
    ob.thread_pool = &pool_b;
    dedicated_a = ot::RunSinkhorn(cost_a, p_a, q_a, oa).value();
    dedicated_b = ot::RunSinkhorn(cost_b, p_b, q_b, ob).value();
  }

  ThreadPool shared(3);
  ot::SinkhornOptions shared_opts = opts;
  shared_opts.thread_pool = &shared;
  ot::SinkhornResult shared_a, shared_b;
  std::thread other([&] {
    shared_b = ot::RunSinkhorn(cost_b, p_b, q_b, shared_opts).value();
  });
  shared_a = ot::RunSinkhorn(cost_a, p_a, q_a, shared_opts).value();
  other.join();

  EXPECT_EQ(shared_a.iterations, dedicated_a.iterations);
  EXPECT_TRUE(shared_a.plan.ApproxEquals(dedicated_a.plan, 0.0));
  EXPECT_EQ(shared_a.transport_cost, dedicated_a.transport_cost);
  EXPECT_EQ(shared_b.iterations, dedicated_b.iterations);
  EXPECT_TRUE(shared_b.plan.ApproxEquals(dedicated_b.plan, 0.0));
  EXPECT_EQ(shared_b.transport_cost, dedicated_b.transport_cost);
}

TEST(ThreadPoolTest, SolverOwnedPoolMatchesExternalPool) {
  // With options.thread_pool unset the solver creates its own pool; the
  // result must be identical either way.
  const Matrix cost = RandomCost(64, 64, 81);
  const Vector p = RandomMarginal(64, 82);
  const Vector q = RandomMarginal(64, 83);
  ot::SinkhornOptions opts;
  opts.epsilon = 0.1;
  opts.relaxed = true;
  opts.lambda = 5.0;
  opts.num_threads = 4;
  const auto own = ot::RunSinkhorn(cost, p, q, opts).value();

  ThreadPool pool(4);
  opts.thread_pool = &pool;
  const auto external = ot::RunSinkhorn(cost, p, q, opts).value();
  EXPECT_EQ(external.iterations, own.iterations);
  EXPECT_TRUE(external.plan.ApproxEquals(own.plan, 0.0));
}

}  // namespace
}  // namespace otclean::linalg
