// Fixture: mutable process-wide state that every world would share.
// Every mutable `static` object and every mutable namespace-scope
// variable here must trip process-state.
#include <cstdint>
#include <string>
#include <vector>

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
static std::uint64_t g_ops{0};
static std::uint64_t
    g_wrapped_total = 0;

// Non-static globals are just as process-wide, and with one thread per
// process so is a thread_local.
int g_tick_skew = 0;
std::vector<std::uint64_t> g_pending_ids;
thread_local std::uint64_t g_epoch = 0;

// Static member functions and immutable tables are fine: no finding.
struct Codec {
  static int decode(int v) { return v ^ 1; }
  static const int kTable[4];
  static constexpr int kShift = 3;
};

}  // namespace fixture
