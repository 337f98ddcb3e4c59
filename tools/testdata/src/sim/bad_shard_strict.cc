// Fixture: strict-module (sim/core) hardening of the shard rules — both
// declarations below must be reported even though each carries the
// annotation that would excuse it elsewhere.
#include <cstdint>

namespace netstore::simx {

// shard_local does not confine a global: still a shard-mutable-global
// finding in module sim.
// netstore: shard_local -- should live in the world instead
std::uint64_t g_stale_worklist_counter = 0;

class SharedScratch {
 public:
  // shard-unsafe-singleton despite the annotation: the mutable member
  // below mutates under const from every worker at once.
  // netstore: shard_safe -- claim contradicted by last_hit_
  static SharedScratch& instance();

  std::uint64_t lookup(std::uint64_t key) const {
    last_hit_ = key;
    return key;
  }

 private:
  mutable std::uint64_t last_hit_ = 0;
};

}  // namespace netstore::simx
