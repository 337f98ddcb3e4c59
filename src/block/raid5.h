// Left-symmetric RAID-5 array over simulated member disks.
//
// Models the paper's storage subsystem: a 4+p RAID-5 array of 10 kRPM
// Ultra-160 drives behind a ServeRAID adapter.  Timing reflects the
// classic small-write penalty (read-modify-write touches two spindles
// twice) and the full-stripe fast path for large sequential writes; the
// member disks model service time only.
//
// The volume's bytes live in one store keyed by logical block.  Parity is
// never visible while every member is up, so it exists only while one is
// down: fail_disk() folds it for every row that holds data, degraded
// reads reconstruct from it, degraded writes keep it current, and
// rebuild_disk() restores the lost member's blocks from it and drops it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "block/block.h"
#include "block/disk.h"
#include "core/buffer_pool.h"
#include "sim/time.h"

namespace netstore::block {

struct Raid5Config {
  std::uint32_t num_disks = 5;          // 4 data + 1 parity (rotating)
  std::uint32_t stripe_unit_blocks = 16;  // 64 KB stripe unit
  DiskConfig disk;
  // Fixed adapter/firmware time per member-disk request, serialized at
  // the controller.  2001-era ServeRAID adapters added close to a
  // millisecond per command — the reason the paper's testbed reads 128 MB
  // in 4 KB requests at only ~3.7 MB/s (Table 4).  Reads and background
  // write destaging use separate controller channels (NVRAM write-back).
  sim::Duration controller_overhead = sim::microseconds(750);
};

/// RAID-5 array.  Logical address space covers the data capacity of the
/// array; the parity overhead is hidden inside the mapping.
class Raid5Array {
 public:
  explicit Raid5Array(Raid5Config config);

  /// Number of logical (data) blocks exposed.
  [[nodiscard]] std::uint64_t block_count() const { return logical_blocks_; }

  /// Reads `nblocks` starting at `lba`, appending one frame per block to
  /// `out`; returns the completion time of the slowest member-disk
  /// request.  Frames are shared with the store (the pool zero page for
  /// blocks never written); in degraded mode a lost block is
  /// reconstructed from parity into a fresh frame.
  sim::Time read(sim::Time start, Lba lba, std::uint32_t nblocks,
                 std::vector<core::BufRef>& out);

  /// Writes blocks[i] to lba + i; returns the completion time.  The store
  /// adopts (shares) the frames; in degraded mode parity is folded into
  /// fresh ones.  Full-stripe writes skip the read-modify-write.
  sim::Time write(sim::Time start, Lba lba,
                  std::span<const core::BufRef> blocks);

  /// Marks a member disk failed: folds the parity of every row that holds
  /// data, then drops the member's blocks.
  void fail_disk(std::uint32_t index);

  /// Rebuilds the failed member's blocks from parity and returns it to
  /// service; the array holds no parity afterwards.
  void rebuild_disk(std::uint32_t index);

  [[nodiscard]] bool degraded() const { return failed_disk_ >= 0; }
  [[nodiscard]] const Raid5Config& config() const { return config_; }
  [[nodiscard]] Disk& disk(std::uint32_t index) { return disks_[index]; }

 private:
  struct Mapping {
    std::uint32_t data_disk;
    std::uint32_t parity_disk;
    Lba physical_lba;  // same on data and parity disks: the stripe row
    std::uint64_t stripe;
  };

  [[nodiscard]] Mapping map(Lba logical) const;
  [[nodiscard]] std::uint32_t parity_disk_for(std::uint64_t stripe) const;
  [[nodiscard]] std::uint32_t data_disk_for(std::uint64_t stripe,
                                            std::uint32_t unit_index) const;
  /// The logical block member `disk` holds in `row` (a physical block
  /// address, the same on every member); nullopt where it holds parity.
  [[nodiscard]] std::optional<Lba> block_on(Lba row,
                                            std::uint32_t disk) const;
  /// Charges one controller slot on the read or write channel; returns
  /// the time the member-disk request may begin.
  sim::Time controller(sim::Time start, bool is_write);
  /// XOR of `first` and the stored data blocks of `row` on every member
  /// but `skip`, into a fresh frame.
  [[nodiscard]] core::BufRef fold_row(Lba row, core::BufRef first,
                                      std::uint32_t skip) const;

  Raid5Config config_;
  std::uint64_t logical_blocks_;
  std::vector<Disk> disks_;
  // The volume's bytes by logical block: the callers' frames, adopted.
  // A failed member's blocks are absent until rebuild_disk().
  std::unordered_map<Lba, core::BufRef> data_;
  // Parity by row; empty unless a member is down.
  std::unordered_map<Lba, core::BufRef> parity_;
  sim::Time ctrl_read_busy_ = 0;
  sim::Time ctrl_write_busy_ = 0;
  int failed_disk_ = -1;
};

}  // namespace netstore::block
