// Fixture: shard-safety annotations that stay valid in a strict module
// (sim/core) — none of these may be reported.  Note what is *absent*
// here: a `shard_local` global no longer passes in strict modules (see
// bad_shard_strict.cc); the non-strict vocabulary lives in
// src/fs/clean_shard_worklist.cc.
#include <cstdint>
#include <string>

namespace netstore::simx {

// Per-thread by construction.
thread_local std::uint32_t g_shard_id = 0;

// An explicit suppression is the one remaining escape for a global in a
// strict module.
// netstore-lint: allow(shard-mutable-global)
std::uint64_t g_debug_poke_count = 0;

class InternTable {
 public:
  // netstore: shard_safe -- append-only under an internal mutex
  static InternTable& instance();

  const std::string& intern(const std::string& s) const { return s; }
};

class Histogram {
 public:
  std::uint64_t quantile(double q) const {
    cached_q_ = q;
    return 0;
  }

 private:
  // netstore: shard_local -- each Histogram lives inside one world
  mutable double cached_q_ = 0.0;
};

}  // namespace netstore::simx
