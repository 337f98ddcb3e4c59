// Single-spindle disk model: mechanical service time only.  The bytes a
// member drive would hold live in the RAID-5 array's store above it.
//
// Parameters default to the paper's testbed drives: 10,000 RPM Ultra-160
// SCSI, 18 GB.  The timing model distinguishes sequential streaming
// (transfer-limited) from random access (seek + rotational latency +
// transfer), which is what gives the sequential/random asymmetry in
// Table 4 and Figure 6 its shape.
#pragma once

#include <cstdint>

#include "block/block.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace netstore::block {

/// Mechanical characteristics of one drive.
struct DiskConfig {
  std::uint64_t block_count = 18ull * 1024 * 1024 * 1024 / kBlockSize;
  // Average seek for a random request; short seeks scale down by sqrt of
  // the LBA distance (a standard first-order seek curve).
  sim::Duration avg_seek = sim::microseconds(4700);
  sim::Duration track_to_track_seek = sim::microseconds(250);
  // 10,000 RPM => 6 ms per revolution, 3 ms mean rotational latency; the
  // adapter's tagged command queuing reorders the stream, so the
  // *effective* added rotational delay per random request is far lower.
  sim::Duration mean_rotational_latency = sim::microseconds(400);
  // Sustained media rate of a 2003-era 10k SCSI drive.
  double transfer_bytes_per_sec = 40e6;

};

/// One simulated disk's service-time model.  The disk serializes its own
/// requests on each channel; callers decide whether to wait for
/// completion.
class Disk {
 public:
  explicit Disk(DiskConfig config) : config_(config) {}

  /// Schedules a media access starting no earlier than `start`; returns
  /// the completion time.  Contiguous-with-previous requests stream at the
  /// media rate; discontiguous requests pay seek + rotation.
  ///
  /// Reads and writes occupy separate service channels: foreground reads
  /// are prioritized over the (potentially deep) background write destage
  /// queue, as a controller with NVRAM write-back does.  Each channel
  /// keeps its own sequential-detection cursor.
  sim::Time submit(sim::Time start, Lba lba, std::uint32_t nblocks,
                   bool is_write);

  /// Number of media requests serviced.
  [[nodiscard]] std::uint64_t requests_serviced() const {
    return requests_.value();
  }

 private:
  [[nodiscard]] sim::Duration seek_time(Lba from, Lba to) const;

  DiskConfig config_;
  sim::Time read_busy_until_ = 0;
  sim::Time write_busy_until_ = 0;
  Lba next_sequential_read_ = 0;
  Lba next_sequential_write_ = 0;
  sim::Counter requests_;
};

}  // namespace netstore::block
