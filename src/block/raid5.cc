#include "block/raid5.h"

#include <algorithm>
#include <array>
#include <utility>

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
/// math goes through here: parity folded when a member fails, degraded
/// reads and writes, and rebuild.  The first pass folds three frames, so
/// the degraded small-write update takes one pass; the zero page stands
/// in for a third frame when there are only two.
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

/// The frame `store` holds under `key`, or the pool zero page.
core::BufRef stored(const std::unordered_map<Lba, core::BufRef>& store,
                    Lba key) {
  const auto it = store.find(key);
  return it == store.end() ? core::BufferPool::instance().zero_page()
                           : it->second;
}

}  // namespace

Raid5Array::Raid5Array(Raid5Config config)
    : config_(config), disks_(config.num_disks, Disk(config.disk)) {
  NETSTORE_CHECK_GE(config_.num_disks, 3u, "RAID-5 needs 2 data + 1 parity");
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
  return Mapping{
      .data_disk = data_disk_for(stripe, unit_index),
      .parity_disk = parity_disk_for(stripe),
      .physical_lba = stripe * unit + offset,
      .stripe = stripe,
  };
}

std::uint32_t Raid5Array::parity_disk_for(std::uint64_t stripe) const {
  return static_cast<std::uint32_t>((config_.num_disks - 1) -
                                    (stripe % config_.num_disks));
}

std::uint32_t Raid5Array::data_disk_for(std::uint64_t stripe,
                                        std::uint32_t unit_index) const {
  // Left-symmetric: data units start just past the parity disk and wrap.
  return (parity_disk_for(stripe) + 1 + unit_index) % config_.num_disks;
}

std::optional<Lba> Raid5Array::block_on(Lba row, std::uint32_t disk) const {
  const std::uint64_t unit = config_.stripe_unit_blocks;
  const std::uint64_t stripe = row / unit;
  const std::uint32_t parity_disk = parity_disk_for(stripe);
  if (disk == parity_disk) return std::nullopt;
  // The inverse of data_disk_for.
  const std::uint32_t unit_index =
      (disk + config_.num_disks - parity_disk - 1) % config_.num_disks;
  return stripe * unit * (config_.num_disks - 1) + unit_index * unit +
         row % unit;
}

core::BufRef Raid5Array::fold_row(Lba row, core::BufRef first,
                                  std::uint32_t skip) const {
  std::vector<core::BufRef> frames;
  frames.reserve(config_.num_disks);
  frames.push_back(std::move(first));
  for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
    const std::optional<Lba> logical = block_on(row, d);
    if (d != skip && logical) frames.push_back(stored(data_, *logical));
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
      out.push_back(fold_row(m.physical_lba, stored(parity_, m.physical_lba),
                             m.data_disk));
      for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
        if (static_cast<int>(d) == failed_disk_) continue;
        done = std::max(done,
                        disks_[d].submit(controller(start, false),
                                         m.physical_lba, 1,
                                         /*is_write=*/false));
      }
    } else {
      out.push_back(stored(data_, lba + i));
      done = std::max(done,
                      disks_[m.data_disk].submit(controller(start, false),
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
  const std::uint64_t unit = config_.stripe_unit_blocks;
  const std::uint64_t stripe_logical = unit * data_disks;

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
      // Full-stripe write: one request per member disk, no reads.  A
      // degraded array takes each row's parity from the new data alone.
      for (Lba logical = stripe_begin; logical < stripe_end; ++logical) {
        if (!degraded() ||
            static_cast<int>(map(logical).data_disk) != failed_disk_) {
          data_[logical] = blocks[logical - lba];
        }
      }
      const Mapping m0 = map(stripe_begin);
      if (degraded() && static_cast<int>(m0.parity_disk) != failed_disk_) {
        std::vector<core::BufRef> row(data_disks);
        for (std::uint64_t off = 0; off < unit; ++off) {
          for (std::uint64_t u = 0; u < data_disks; ++u) {
            row[u] = blocks[stripe_begin - lba + u * unit + off];
          }
          parity_[m0.physical_lba + off] = fold(row);
        }
      }
      for (std::uint32_t d = 0; d < config_.num_disks; ++d) {
        if (static_cast<int>(d) == failed_disk_) continue;
        done = std::max(done, disks_[d].submit(
                                  controller(start, true), m0.stripe * unit,
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
      parity_[m.physical_lba] = fold_row(m.physical_lba, blocks[i],
                                         m.data_disk);
      for (std::uint32_t u = 0; u < data_disks; ++u) {
        const std::uint32_t d = data_disk_for(m.stripe, u);
        if (static_cast<int>(d) == failed_disk_) continue;
        // Part of background destage: ride the write channel.
        done = std::max(done, disks_[d].submit(controller(start, true),
                                               m.physical_lba, 1,
                                               /*is_write=*/true));
      }
      done = std::max(done,
                      disks_[m.parity_disk].submit(controller(start, true),
                                                   m.physical_lba, 1,
                                                   /*is_write=*/true));
    } else if (static_cast<int>(m.parity_disk) == failed_disk_) {
      // Parity spindle is gone: plain write to the data spindle.
      data_[cur] = blocks[i];
      done = std::max(done,
                      disks_[m.data_disk].submit(controller(start, true),
                                                 m.physical_lba, 1,
                                                 /*is_write=*/true));
    } else {
      if (degraded()) {
        // new_parity = old_parity ^ old_data ^ new_data
        const std::array<core::BufRef, 3> update{
            stored(parity_, m.physical_lba), stored(data_, cur), blocks[i]};
        parity_[m.physical_lba] = fold(update);
      }
      data_[cur] = blocks[i];
      // Two accesses on each of the two spindles (read then write).
      // RMW is background destage work: both its reads and writes ride
      // the controller's and the spindles' write/destage channels, so
      // they never block foreground reads.
      const sim::Time dr = disks_[m.data_disk].submit(
          controller(start, true), m.physical_lba, 1, /*is_write=*/true);
      const sim::Time pr = disks_[m.parity_disk].submit(
          controller(start, true), m.physical_lba, 1, /*is_write=*/true);
      done = std::max(done, disks_[m.data_disk].submit(dr, m.physical_lba, 1,
                                                       /*is_write=*/true));
      done = std::max(done,
                      disks_[m.parity_disk].submit(pr, m.physical_lba, 1,
                                                   /*is_write=*/true));
    }
    ++i;
  }
  return done;
}

void Raid5Array::fail_disk(std::uint32_t index) {
  NETSTORE_CHECK_LT(index, config_.num_disks);
  NETSTORE_CHECK_LT(failed_disk_, 0, "RAID-5 tolerates a single failure");
  NETSTORE_CHECK(parity_.empty(), "a healthy array holds no parity");
  std::vector<Lba> rows;
  rows.reserve(data_.size());
  // netstore-lint: allow(unordered-iter) -- feeds the sort below
  for (const auto& entry : data_) {
    rows.push_back(map(entry.first).physical_lba);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  // Each row that holds data gets the XOR of all of it, the lost block
  // included.  Rows whose parity the failed member held lose it with it.
  for (const Lba row : rows) {
    const std::optional<Lba> lost = block_on(row, index);
    if (!lost) continue;
    parity_[row] = fold_row(row, stored(data_, *lost), index);
    data_.erase(*lost);
  }
  failed_disk_ = static_cast<int>(index);
}

void Raid5Array::rebuild_disk(std::uint32_t index) {
  NETSTORE_CHECK_EQ(failed_disk_, static_cast<int>(index));
  // The rows with parity are exactly the rows to rebuild.
  std::vector<std::pair<Lba, core::BufRef>> rows;
  rows.reserve(parity_.size());
  // netstore-lint: allow(unordered-iter) -- feeds the sort below
  for (const auto& entry : parity_) rows.push_back(entry);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [row, parity] : rows) {
    const std::optional<Lba> lost = block_on(row, index);
    NETSTORE_CHECK(lost.has_value(), "parity kept where the member held it");
    data_[*lost] = fold_row(row, parity, index);
  }
  parity_.clear();
  failed_disk_ = -1;
}

}  // namespace netstore::block
