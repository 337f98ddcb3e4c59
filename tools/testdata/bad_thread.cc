// Fixture: a netstore process runs one thread; parallel runs are separate
// processes.  Every thread start below must trip the thread rule, which
// runs outside src/ too.
#include <future>
#include <thread>

namespace fixture {

int work() { return 1; }

void fan_out() {
  std::thread worker(work);                           // BAD: thread
  std::jthread joined(work);                          // BAD: thread
  auto pending = std::async(std::launch::async, work);  // BAD: thread
  worker.join();
  (void)pending.get();
}

}  // namespace fixture
