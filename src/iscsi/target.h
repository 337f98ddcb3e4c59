// iSCSI target: executes SCSI commands against a cached RAID-5 volume.
//
// Stands in for the commercial target of the paper's testbed: a RAM
// write-back cache in front of the array, so writes are acknowledged at
// memory speed and reads hit the cache when warm.  All timing is explicit
// (start time in, completion time out) because commands may be served in
// the initiator's future (asynchronous writes).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "block/timed_cache.h"
#include "core/check.h"
#include "scsi/scsi.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace netstore::iscsi {

/// Charged per command at the target; lets the testbed account server CPU.
/// Returns the processing time to add to the service path.
using TargetCostHook = std::function<sim::Duration(
    sim::Time at, bool is_write, std::uint32_t nblocks)>;

class Target {
 public:
  Target(block::TimedCache& cache, std::uint64_t volume_blocks)
      : cache_(cache), volume_blocks_(volume_blocks) {}

  /// READ(10) beginning at `start`: appends one shared cache frame per
  /// block to `out`.  Returns the completion time at the target.
  sim::Time serve_read(const scsi::Cdb& cdb, sim::Time start,
                       std::vector<core::BufRef>& out,
                       scsi::CommandResult& result);

  /// WRITE(10) beginning at `start` (blocks.size() == cdb.nblocks): the
  /// cache adopts the frames.  Returns the completion time at the target.
  sim::Time serve_write(const scsi::Cdb& cdb, sim::Time start,
                        std::span<const core::BufRef> blocks,
                        scsi::CommandResult& result);

  void set_cost_hook(TargetCostHook hook) { cost_hook_ = std::move(hook); }

  [[nodiscard]] std::uint64_t volume_blocks() const { return volume_blocks_; }

  /// Exclusive LUN ownership.  A session claims its LUN at login and
  /// releases it at logout; claiming a LUN another session holds is a
  /// CHECK-abort, not an error return — sharing a raw block device
  /// between initiators corrupts the file system on it, so a testbed
  /// that tries is misconfigured.  This is the structural reason the
  /// fleet's iSCSI clients generate no coherence traffic: every client
  /// multiplexes through the one session that owns the volume.
  void claim_lun(std::uint32_t lun) {
    NETSTORE_CHECK(claimed_luns_.insert(lun).second,
                   "LUN already owned by another session");
  }
  void release_lun(std::uint32_t lun) { claimed_luns_.erase(lun); }

  /// Orderly restart (cold-cache emulation): flush and drop the cache.
  void restart() { cache_.restart(); }

  /// Power-loss crash: cached dirty data is gone.
  void crash() { cache_.crash(); }

 private:
  /// Command prologue shared by both entry points: resets `result`,
  /// charges the cost hook, and rejects an LBA range past the volume
  /// with CHECK CONDITION.  Returns the time execution starts (or the
  /// rejection is sent).
  sim::Time admit(const scsi::Cdb& cdb, sim::Time start,
                  scsi::CommandResult& result);

  block::TimedCache& cache_;
  std::uint64_t volume_blocks_;
  TargetCostHook cost_hook_;
  std::unordered_set<std::uint32_t> claimed_luns_;
};

}  // namespace netstore::iscsi
