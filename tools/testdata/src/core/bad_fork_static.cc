// Fixture: mutable process-wide state that every world would share.
// Every `static` object here must trip fork-unsafe-state.
#include <atomic>
#include <cstdint>
#include <string>

namespace fixture {

// A run-id minted from a process-wide counter: two worlds built from one
// config mint *different* names, so the second run diverges from the
// first.
std::string next_run_name() {
  static int run_id = 0;
  return "/run" + std::to_string(run_id++);
}

// Static member object: shared across every Testbed in the process.
class Cache {
  static std::uint64_t hits_;
};

// Namespace-scope mutable globals, wrapped declaration included.
static std::atomic<std::uint64_t> g_ops{0};
static std::uint64_t
    g_wrapped_total = 0;

// Static member functions and immutable tables are fine: no finding.
struct Codec {
  static int decode(int v) { return v ^ 1; }
  static const int kTable[4];
  static constexpr int kShift = 3;
};

}  // namespace fixture
