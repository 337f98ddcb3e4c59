#include "block/disk.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace netstore::block {

sim::Duration Disk::seek_time(Lba from, Lba to) const {
  const auto distance =
      from > to ? from - to : to - from;
  if (distance == 0) return 0;
  // First-order seek curve: track-to-track at distance ~1, average seek at
  // one-third span, scaling with sqrt(distance).
  const double frac = static_cast<double>(distance) /
                      static_cast<double>(config_.block_count);
  const double scaled =
      static_cast<double>(config_.track_to_track_seek) +
      (static_cast<double>(config_.avg_seek) -
       static_cast<double>(config_.track_to_track_seek)) *
          std::sqrt(frac * 3.0);
  return std::min<sim::Duration>(static_cast<sim::Duration>(scaled),
                                 config_.avg_seek * 2);
}

sim::Time Disk::submit(sim::Time start, Lba lba, std::uint32_t nblocks,
                       bool is_write) {
  NETSTORE_CHECK_GT(nblocks, 0u);
  NETSTORE_CHECK_LE(lba + nblocks, config_.block_count);
  requests_.add(1);
  sim::Time& busy_until = is_write ? write_busy_until_ : read_busy_until_;
  Lba& next_sequential = is_write ? next_sequential_write_ : next_sequential_read_;

  sim::Duration positioning = 0;
  if (lba != next_sequential) {
    positioning =
        seek_time(next_sequential, lba) + config_.mean_rotational_latency;
  }
  const auto transfer = static_cast<sim::Duration>(
      static_cast<double>(nblocks) * kBlockSize /
      config_.transfer_bytes_per_sec * static_cast<double>(sim::kSecond));
  const sim::Time begin = std::max(start, busy_until);
  busy_until = begin + positioning + transfer;
  next_sequential = lba + nblocks;
  return busy_until;
}

}  // namespace netstore::block
