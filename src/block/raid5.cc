#include "block/raid5.h"

#include <algorithm>
#include <array>

#include "core/check.h"

namespace netstore::block {

namespace {

// The restrict qualifiers state what every caller guarantees: the output
// is a fresh frame that no source shares.  They let the compiler
// vectorize these loops without a run-time overlap check.

/// out = a ^ b ^ c over one block, in one pass.
void xor3(std::uint8_t* __restrict out, const std::uint8_t* __restrict a,
          const std::uint8_t* __restrict b, const std::uint8_t* __restrict c) {
  for (std::uint32_t i = 0; i < kBlockSize; ++i) out[i] = a[i] ^ b[i] ^ c[i];
}

/// acc ^= src over one block.
void xor_into(std::uint8_t* __restrict acc,
              const std::uint8_t* __restrict src) {
  for (std::uint32_t i = 0; i < kBlockSize; ++i) acc[i] ^= src[i];
}

/// XOR of `frames` (two or more) into a fresh pool frame.  All parity
/// math goes through here: the small-write update, full-stripe parity,
/// degraded reads and writes, rebuild and the parity audits.  The first
/// pass folds three frames, so the small-write update takes one pass; the
/// zero page stands in for a third frame when there are only two.
core::BufRef fold(std::span<const core::BufRef> frames) {
  core::BufferPool& pool = core::BufferPool::instance();
  const core::BufRef zero = pool.zero_page();
  core::BufRef acc = pool.alloc();
  xor3(acc.mutable_data(), frames[0].data(), frames[1].data(),
       (frames.size() > 2 ? frames[2] : zero).data());
  for (std::size_t k = 3; k < frames.size(); ++k) {
    xor_into(acc.mutable_data(), frames[k].data());
  }
  return acc;
}

}  // namespace

Raid5Array::Raid5Array(Raid5Config config) : config_(config) {
  NETSTORE_CHECK_GE(config_.num_disks, 3u, "RAID-5 needs 2 data + 1 parity");
  disks_.reserve(config_.num_disks);
  for (std::uint32_t i = 0; i < config_.num_disks; ++i) {
    disks_.push_back(std::make_unique<Disk>(config_.disk));
  }
  const std::uint64_t data_disks = config_.num_disks - 1;
  // Only whole stripes are addressable: a partial tail stripe would map
  // past the end of a member disk.
  const std::uint64_t usable_per_disk =
      config_.disk.block_count / config_.stripe_unit_blocks *
      config_.stripe_unit_blocks;
  logical_blocks_ = usable_per_disk * data_disks;
}

sim::Time Raid5Array::controller(sim::Time start, bool is_write) {
  sim::Time& busy = is_write ? ctrl_write_busy_ : ctrl_read_busy_;
  const sim::Time begin = std::max(start, busy);
  busy = begin + config_.controller_overhead;
  return busy;
}

Raid5Array::Mapping Raid5Array::map(Lba logical) const {
  const std::uint64_t data_disks = config_.num_disks - 1;
  const std::uint64_t unit = config_.stripe_unit_blocks;
  const std::uint64_t stripe = logical / (unit * data_disks);
  const std::uint64_t within = logical % (unit * data_disks);
  const auto unit_index = static_cast<std::uint32_t>(within / unit);
  const std::uint64_t offset = within % unit;

  const auto parity_disk = static_cast<std::uint32_t>(
      (config_.num_disks - 1) - (stripe % config_.num_disks));
  return Mapping{
      .data_disk = data_disk_for(stripe, unit_index),
      .parity_disk = parity_disk,
      .physical_lba = stripe * unit + offset,
      .stripe = stripe,
  };
}

std::uint32_t Raid5Array::data_disk_for(std::uint64_t stripe,
                                        std::uint32_t unit_index) const {
  const auto parity_disk = static_cast<std::uint32_t>(
      (config_.num_disks - 1) - (stripe % config_.num_disks));
  // Left-symmetric: data units start just past the parity disk and wrap.
  return (parity_disk + 1 + unit_index) % config_.num_disks;
}

core::BufRef Raid5Array::fold_members(Lba plba, std::uint32_t skip) const {
  std::vector<core::BufRef> frames;
  frames.reserve(config_.num_disks);
  for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
    if (d != skip) frames.push_back(disks_[d]->read_ref(plba));
  }
  return fold(frames);
}

sim::Time Raid5Array::read(sim::Time start, Lba lba, std::uint32_t nblocks,
                           std::vector<core::BufRef>& out) {
  NETSTORE_CHECK_LE(lba + nblocks, logical_blocks_);
  sim::Time done = start;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const Mapping m = map(lba + i);
    if (static_cast<int>(m.data_disk) == failed_disk_) {
      // Degraded read: every surviving spindle contributes one block.
      out.push_back(fold_members(m.physical_lba, m.data_disk));
      for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
        if (static_cast<int>(d) == failed_disk_) continue;
        done = std::max(done,
                        disks_[d]->submit(controller(start, false),
                                          m.physical_lba, 1,
                                          /*is_write=*/false));
      }
    } else {
      out.push_back(disks_[m.data_disk]->read_ref(m.physical_lba));
      done = std::max(done,
                      disks_[m.data_disk]->submit(controller(start, false),
                                                  m.physical_lba, 1,
                                                  /*is_write=*/false));
    }
  }
  return done;
}

sim::Time Raid5Array::write(sim::Time start, Lba lba,
                            std::span<const core::BufRef> blocks) {
  const auto nblocks = static_cast<std::uint32_t>(blocks.size());
  NETSTORE_CHECK_LE(lba + nblocks, logical_blocks_);
  const std::uint64_t data_disks = config_.num_disks - 1;
  const std::uint64_t stripe_logical = config_.stripe_unit_blocks * data_disks;

  sim::Time done = start;
  std::uint32_t i = 0;
  while (i < nblocks) {
    const Lba cur = lba + i;
    const std::uint64_t stripe = cur / stripe_logical;
    const Lba stripe_begin = stripe * stripe_logical;
    const Lba stripe_end = stripe_begin + stripe_logical;
    const bool full_stripe =
        cur == stripe_begin && lba + nblocks >= stripe_end;

    if (full_stripe) {
      // Full-stripe write: parity from new data alone; one request per
      // member disk, no reads.
      std::vector<core::BufRef> row;
      for (std::uint64_t off = 0; off < config_.stripe_unit_blocks; ++off) {
        row.clear();
        for (std::uint32_t u = 0; u < data_disks; ++u) {
          const Lba logical =
              stripe_begin + u * config_.stripe_unit_blocks + off;
          const core::BufRef& block = blocks[logical - lba];
          const Mapping m = map(logical);
          if (static_cast<int>(m.data_disk) != failed_disk_) {
            disks_[m.data_disk]->write_ref(m.physical_lba, block);
          }
          row.push_back(block);
        }
        const Mapping m0 = map(stripe_begin + off);
        if (static_cast<int>(m0.parity_disk) != failed_disk_) {
          disks_[m0.parity_disk]->write_ref(m0.physical_lba, fold(row));
        }
      }
      const Mapping m0 = map(stripe_begin);
      for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
        if (static_cast<int>(d) == failed_disk_) continue;
        done = std::max(done, disks_[d]->submit(
                                  controller(start, true),
                                  m0.stripe * config_.stripe_unit_blocks,
                                  config_.stripe_unit_blocks,
                                  /*is_write=*/true));
      }
      i += static_cast<std::uint32_t>(stripe_end - cur);
      continue;
    }

    // Partial-stripe block: read-modify-write on data + parity spindles.
    const Mapping m = map(cur);
    if (static_cast<int>(m.data_disk) == failed_disk_) {
      // Writing to the failed member: fold the update into parity so a
      // later reconstruction returns the new data.
      std::vector<core::BufRef> row{blocks[i]};
      for (std::uint32_t u = 0; u < data_disks; ++u) {
        const std::uint32_t d = data_disk_for(m.stripe, u);
        if (static_cast<int>(d) == failed_disk_) continue;
        row.push_back(disks_[d]->read_ref(m.physical_lba));
        // Part of background destage: ride the write channel.
        done = std::max(done, disks_[d]->submit(controller(start, true),
                                                m.physical_lba, 1,
                                                /*is_write=*/true));
      }
      disks_[m.parity_disk]->write_ref(m.physical_lba, fold(row));
      done = std::max(done,
                      disks_[m.parity_disk]->submit(controller(start, true),
                                                    m.physical_lba, 1,
                                                    /*is_write=*/true));
    } else if (static_cast<int>(m.parity_disk) == failed_disk_) {
      // Parity spindle is gone: plain write to the data spindle.
      disks_[m.data_disk]->write_ref(m.physical_lba, blocks[i]);
      done = std::max(done,
                      disks_[m.data_disk]->submit(controller(start, true),
                                                  m.physical_lba, 1,
                                                  /*is_write=*/true));
    } else {
      // new_parity = old_parity ^ old_data ^ new_data
      const std::array<core::BufRef, 3> update{
          disks_[m.parity_disk]->read_ref(m.physical_lba),
          disks_[m.data_disk]->read_ref(m.physical_lba), blocks[i]};
      disks_[m.data_disk]->write_ref(m.physical_lba, blocks[i]);
      disks_[m.parity_disk]->write_ref(m.physical_lba, fold(update));
      // Two accesses on each of the two spindles (read then write).
      // RMW is background destage work: both its reads and writes ride
      // the controller's and the spindles' write/destage channels, so
      // they never block foreground reads.
      const sim::Time dr = disks_[m.data_disk]->submit(
          controller(start, true), m.physical_lba, 1, /*is_write=*/true);
      const sim::Time pr = disks_[m.parity_disk]->submit(
          controller(start, true), m.physical_lba, 1, /*is_write=*/true);
      done = std::max(done, disks_[m.data_disk]->submit(dr, m.physical_lba, 1,
                                                        /*is_write=*/true));
      done = std::max(done,
                      disks_[m.parity_disk]->submit(pr, m.physical_lba, 1,
                                                    /*is_write=*/true));
    }
    ++i;
  }
  if (audit_ && failed_disk_ < 0) {
    // Spot-check: every stripe this write touched must leave parity
    // consistent (XOR across all members zero), whether it went through
    // the full-stripe fast path or read-modify-write.
    const std::uint64_t first = lba / stripe_logical;
    const std::uint64_t last = (lba + nblocks - 1) / stripe_logical;
    for (std::uint64_t s = first; s <= last; ++s) {
      NETSTORE_CHECK(stripe_parity_clean(s),
                     "RAID-5 write left inconsistent parity");
    }
  }
  return done;
}

bool Raid5Array::stripe_parity_clean(std::uint64_t stripe) const {
  const core::BufRef zero = core::BufferPool::instance().zero_page();
  for (std::uint64_t off = 0; off < config_.stripe_unit_blocks; ++off) {
    const Lba plba = stripe * config_.stripe_unit_blocks + off;
    if (fold_members(plba, config_.num_disks).block() != zero.block()) {
      return false;
    }
  }
  return true;
}

bool Raid5Array::verify_parity(Lba max_logical_lba) const {
  if (failed_disk_ >= 0) return true;
  const std::uint64_t data_disks = config_.num_disks - 1;
  const std::uint64_t stripe_logical = config_.stripe_unit_blocks * data_disks;
  const std::uint64_t stripes =
      (max_logical_lba + stripe_logical - 1) / stripe_logical;
  for (std::uint64_t s = 0; s < stripes; ++s) {
    if (!stripe_parity_clean(s)) return false;
  }
  return true;
}

void Raid5Array::fail_disk(std::uint32_t index) {
  NETSTORE_CHECK_LT(index, config_.num_disks);
  NETSTORE_CHECK_LT(failed_disk_, 0, "RAID-5 tolerates a single failure");
  failed_disk_ = static_cast<int>(index);
  disks_[index]->clear_data();
}

void Raid5Array::rebuild_disk(std::uint32_t index, Lba max_logical_lba) {
  NETSTORE_CHECK_EQ(failed_disk_, static_cast<int>(index));
  const std::uint64_t data_disks = config_.num_disks - 1;
  const std::uint64_t stripe_logical = config_.stripe_unit_blocks * data_disks;
  const std::uint64_t stripes =
      (max_logical_lba + stripe_logical - 1) / stripe_logical;

  for (std::uint64_t s = 0; s < stripes; ++s) {
    for (std::uint64_t off = 0; off < config_.stripe_unit_blocks; ++off) {
      const Lba plba = s * config_.stripe_unit_blocks + off;
      disks_[index]->write_ref(plba, fold_members(plba, index));
    }
  }
  failed_disk_ = -1;
}

}  // namespace netstore::block
