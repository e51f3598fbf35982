// Fixture: a linalg/ file other than thread_pool.{h,cc} spawning its own
// thread (a spawn-per-call loop beside the pool) must be flagged.
#include <thread>
#include <vector>

namespace fixture {

void SpawnPerCall(size_t chunks) {
  std::vector<std::thread> workers;
  for (size_t c = 1; c < chunks; ++c) workers.emplace_back([] {});
  for (std::thread& w : workers) w.join();
}

}  // namespace fixture
