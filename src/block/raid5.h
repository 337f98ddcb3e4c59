// Left-symmetric RAID-5 array over simulated member disks.
//
// Models the paper's storage subsystem: a 4+p RAID-5 array of 10 kRPM
// Ultra-160 drives behind a ServeRAID adapter.  Parity is computed for
// real (XOR over the stripe), so tests can fail a member drive and verify
// reconstruction; timing reflects the classic small-write penalty
// (read-modify-write touches two spindles twice) and the full-stripe
// fast path for large sequential writes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
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
  /// request.  Frames are shared with the member disks' stores; in
  /// degraded mode a lost block is reconstructed from parity into a
  /// fresh frame.
  sim::Time read(sim::Time start, Lba lba, std::uint32_t nblocks,
                 std::vector<core::BufRef>& out);

  /// Writes blocks[i] to lba + i; returns the completion time.  Each
  /// member disk adopts (shares) its data frames; parity is folded from
  /// the frames into fresh ones.  Full-stripe writes skip the
  /// read-modify-write.
  sim::Time write(sim::Time start, Lba lba,
                  std::span<const core::BufRef> blocks);

  /// Marks a member disk failed (its contents become unreadable).
  void fail_disk(std::uint32_t index);

  /// Rebuilds a previously failed disk from the survivors and returns it
  /// to service.  `max_lba` bounds the rebuild scan (logical blocks).
  void rebuild_disk(std::uint32_t index, Lba max_logical_lba);

  [[nodiscard]] bool degraded() const { return failed_disk_ >= 0; }
  [[nodiscard]] const Raid5Config& config() const { return config_; }
  [[nodiscard]] Disk& disk(std::uint32_t index) { return *disks_[index]; }

  /// Enables runtime invariant audits: every write spot-checks parity
  /// consistency of the stripes it touched (XOR across all members must be
  /// zero).  Off by default — it re-reads whole stripes per write.
  void set_audit(bool on) { audit_ = on; }

  /// Scans the stripes backing logical blocks [0, max_logical_lba) and
  /// verifies parity (XOR of every member's block is zero).  Always
  /// returns true in degraded mode, where parity is provisional.
  [[nodiscard]] bool verify_parity(Lba max_logical_lba) const;

 private:
  struct Mapping {
    std::uint32_t data_disk;
    std::uint32_t parity_disk;
    Lba physical_lba;  // same on data and parity disks
    std::uint64_t stripe;
  };

  [[nodiscard]] Mapping map(Lba logical) const;
  [[nodiscard]] std::uint32_t data_disk_for(std::uint64_t stripe,
                                            std::uint32_t unit_index) const;
  /// Charges one controller slot on the read or write channel; returns
  /// the time the member-disk request may begin.
  sim::Time controller(sim::Time start, bool is_write);
  /// XOR of the blocks at physical `plba` on every member but `skip`
  /// (num_disks folds them all), into a fresh frame.
  [[nodiscard]] core::BufRef fold_members(Lba plba, std::uint32_t skip) const;
  /// XOR across all members is zero for every unit of `stripe`.
  [[nodiscard]] bool stripe_parity_clean(std::uint64_t stripe) const;

  Raid5Config config_;
  std::uint64_t logical_blocks_;
  std::vector<std::unique_ptr<Disk>> disks_;
  sim::Time ctrl_read_busy_ = 0;
  sim::Time ctrl_write_busy_ = 0;
  int failed_disk_ = -1;
  bool audit_ = false;
};

}  // namespace netstore::block
