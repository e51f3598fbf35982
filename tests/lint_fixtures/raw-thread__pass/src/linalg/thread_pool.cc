// Fixture: src/linalg/thread_pool.{h,cc} is the one allowed home of
// std::thread — the ThreadPool owns its workers here.
#include <thread>
#include <vector>

namespace fixture {

void SpawnWorkers(std::vector<std::thread>* workers) {
  workers->emplace_back([] {});
}

}  // namespace fixture
