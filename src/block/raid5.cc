#include "block/raid5.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"

namespace netstore::block {

namespace {
void xor_into(MutBlockView acc, BlockView other) {
  for (std::uint32_t i = 0; i < kBlockSize; ++i) acc[i] ^= other[i];
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

void Raid5Array::read_block_data(const Mapping& m, MutBlockView out) const {
  if (static_cast<int>(m.data_disk) == failed_disk_) {
    reconstruct_block(m, out);
  } else {
    disks_[m.data_disk]->read_data(m.physical_lba, out);
  }
}

void Raid5Array::reconstruct_block(const Mapping& m, MutBlockView out) const {
  BlockBuf acc{};
  BlockBuf tmp;
  for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
    if (d == m.data_disk) continue;
    disks_[d]->read_data(m.physical_lba, tmp);
    xor_into(acc, tmp);
  }
  // Reconstruction scratch -> caller block: parity math, not a payload
  // crossing.  netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(out.data(), acc.data(), kBlockSize);
}

sim::Time Raid5Array::read(sim::Time start, Lba lba, std::uint32_t nblocks,
                           std::vector<core::BufRef>& out) {
  NETSTORE_CHECK_LE(lba + nblocks, logical_blocks_);
  sim::Time done = start;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const Mapping m = map(lba + i);
    if (static_cast<int>(m.data_disk) == failed_disk_) {
      // Degraded read: every surviving spindle contributes one block.
      core::BufRef ref = core::BufferPool::instance().alloc();
      reconstruct_block(m, ref.mutable_view());
      out.push_back(std::move(ref));
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
      for (std::uint64_t off = 0; off < config_.stripe_unit_blocks; ++off) {
        BlockBuf parity{};
        for (std::uint32_t u = 0; u < data_disks; ++u) {
          const Lba logical =
              stripe_begin + u * config_.stripe_unit_blocks + off;
          const core::BufRef& block = blocks[logical - lba];
          const Mapping m = map(logical);
          if (static_cast<int>(m.data_disk) != failed_disk_) {
            disks_[m.data_disk]->write_ref(m.physical_lba, block);
          }
          xor_into(parity, block.view());
        }
        const Mapping m0 = map(stripe_begin + off);
        if (static_cast<int>(m0.parity_disk) != failed_disk_) {
          disks_[m0.parity_disk]->write_data(m0.physical_lba, parity);
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
    const BlockView new_data = blocks[i].view();
    BlockBuf old_data;
    read_block_data(m, old_data);

    if (static_cast<int>(m.data_disk) == failed_disk_) {
      // Writing to the failed member: fold the update into parity so a
      // later reconstruction returns the new data.
      BlockBuf parity{};
      BlockBuf tmp;
      const std::uint64_t unit = config_.stripe_unit_blocks;
      const std::uint64_t within_unit = m.physical_lba % unit;
      for (std::uint32_t u = 0; u < data_disks; ++u) {
        const Lba logical = m.stripe * stripe_logical + u * unit + within_unit;
        const Mapping mu = map(logical);
        if (static_cast<int>(mu.data_disk) == failed_disk_) {
          xor_into(parity, new_data);
        } else {
          disks_[mu.data_disk]->read_data(mu.physical_lba, tmp);
          xor_into(parity, tmp);
          // Part of background destage: ride the write channel.
          done = std::max(done, disks_[mu.data_disk]->submit(
                                    controller(start, true),
                                    mu.physical_lba, 1,
                                    /*is_write=*/true));
        }
      }
      disks_[m.parity_disk]->write_data(m.physical_lba, parity);
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
      BlockBuf old_parity;
      disks_[m.parity_disk]->read_data(m.physical_lba, old_parity);
      // new_parity = old_parity ^ old_data ^ new_data
      xor_into(old_parity, old_data);
      xor_into(old_parity, new_data);
      disks_[m.data_disk]->write_ref(m.physical_lba, blocks[i]);
      disks_[m.parity_disk]->write_data(m.physical_lba, old_parity);
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
  BlockBuf acc;
  BlockBuf tmp;
  for (std::uint64_t off = 0; off < config_.stripe_unit_blocks; ++off) {
    const Lba plba = stripe * config_.stripe_unit_blocks + off;
    acc.fill(0);
    for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
      disks_[d]->read_data(plba, tmp);
      xor_into(acc, tmp);
    }
    for (std::uint32_t b = 0; b < kBlockSize; ++b) {
      if (acc[b] != 0) return false;
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
      BlockBuf acc{};
      BlockBuf tmp;
      for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
        if (static_cast<int>(d) == failed_disk_) continue;
        disks_[d]->read_data(plba, tmp);
        xor_into(acc, tmp);
      }
      disks_[index]->write_data(plba, acc);
    }
  }
  failed_disk_ = -1;
}

}  // namespace netstore::block
