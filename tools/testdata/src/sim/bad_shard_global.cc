// Fixture: mutable namespace-scope state is visible to every worker
// thread at once (rule: shard-mutable-global).  Each un-annotated global
// below must trip; the thread_local one must not (inherently per-thread).
#include <cstdint>
#include <vector>

namespace netstore::simx {

int g_tick_skew = 0;                       // BAD: shard-mutable-global
std::vector<std::uint64_t> g_pending_ids;  // BAD: shard-mutable-global

// Per-thread by construction — passes without annotation.
thread_local std::uint64_t g_worker_epoch = 0;

// Immutable: harmless to share.
constexpr int kMaxShards = 64;

void bump() { g_tick_skew++; }

}  // namespace netstore::simx
