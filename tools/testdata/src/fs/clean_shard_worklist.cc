// Fixture: the `shard_local` work-list annotation on a global still
// defers shard-mutable-global in non-strict modules (anything outside
// sim/core) — nothing here may be reported.  The strict-module
// counterpart is src/sim/bad_shard_strict.cc, where the same shape is a
// hard failure.
#include <cstdint>

namespace netstore::fsx {

// Confined to one world; fs is not a strict module.
// netstore: shard_local -- only the owning mount touches it
std::uint64_t g_lookup_cache_hits = 0;

}  // namespace netstore::fsx
