// Fixture: a clean file plus suppressed findings — none of these may be
// reported.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fixture {

struct Tracker {
  std::unordered_map<std::uint64_t, int> counts_;
  std::vector<std::uint64_t> order_;

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    // netstore-lint: allow(unordered-iter) -- commutative sum, order-free
    for (const auto& [key, n] : counts_) sum += static_cast<std::uint64_t>(n);
    return sum;
  }

  void replay() {
    for (std::uint64_t key : order_) visit(key);  // vector: deterministic
  }

  void visit(std::uint64_t key);
};

// A comment mentioning rand() or system_clock must not trip the scanner,
// and neither must the string below.
inline const char* kDoc = "call rand() and assert( nothing here )";

// Immutable statics and static member functions are fine as-is; a
// process-wide diagnostic may keep mutable static state under a
// justified suppression.
struct ProcessSafe {
  static constexpr int kWays = 4;
  static const char* name() { return "process-safe"; }
  // netstore-lint: allow(process-state) -- host-side diagnostic only
  static int debug_probes_;
};

}  // namespace fixture
