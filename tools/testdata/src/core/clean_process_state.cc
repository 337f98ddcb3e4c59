// Fixture: state that is not process-wide — none of these may be
// reported.
#include <cstdint>
#include <string>
#include <vector>

namespace fixture {

// Immutable globals are harmless to share.
constexpr int kMaxWorlds = 64;
const std::uint64_t kSeed = 7;
constinit const char* const kName = "world";

// Declarations that look like data but are not namespace-scope storage.
extern std::uint64_t g_declared_elsewhere;
int scaled(int v);
using Ids = std::vector<std::uint64_t>;

// Members and locals belong to an object or a call, not to the process.
class Journal {
 public:
  void append(std::uint64_t id) {
    std::uint64_t next = id + 1;
    ids_.push_back(next);
  }

 private:
  Ids ids_;
  std::string name_ = "journal";
};

// A process-wide diagnostic may keep mutable state under a justified
// suppression.
// netstore-lint: allow(process-state) -- host-side diagnostic only
std::uint64_t g_debug_probes = 0;

}  // namespace fixture
