// Abstract block device: what a local file system mounts on.
//
// The same Ext3Fs code runs at the iSCSI client (over IscsiBlockDevice)
// and inside the NFS server (over LocalBlockDevice); this interface is the
// seam between them — exactly the abstraction boundary the paper studies.
//
// Payload crosses the seam in one shape: refcounted pool frames
// (core::BufRef), one per block.  Reads hand out shared frames, and writes
// hand frames to devices that store blocks, which share them instead of
// copying their bytes; a later mutation on either side un-shares
// (copy-on-write, DESIGN.md §14).
//
// Calls are synchronous from the caller's perspective; implementations
// advance the simulation clock to model blocking.  Asynchronous writes
// return immediately and become durable by a later flush() (or on their
// own, for devices with background write-back).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "block/block.h"
#include "core/buffer_pool.h"
#include "sim/time.h"

namespace netstore::block {

enum class WriteMode {
  kAsync,  // write-behind: hand off and return
  kSync,   // blocking: durable before return
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  [[nodiscard]] virtual std::uint64_t block_count() const = 0;

  /// Reads `nblocks` at `lba`, appending one frame per block to `out`,
  /// blocking until the data is available.  The frames are shared with
  /// the device's store where it has one: zero copies on a warm path.
  virtual void read(Lba lba, std::uint32_t nblocks,
                    std::vector<core::BufRef>& out) = 0;

  /// Writes blocks[i] to lba + i as one device request.
  virtual void write(Lba lba, std::span<const core::BufRef> blocks,
                     WriteMode mode) = 0;

  /// Optional non-blocking read (read-ahead support): starts a read of
  /// `nblocks` at `lba` without advancing the clock and appends the
  /// frames to `out` at once, but they are only *logically* valid at the
  /// returned virtual time; callers must not consume them before
  /// advancing to it.  Returns nullopt when the device has no async path
  /// (callers fall back to blocking reads).
  virtual std::optional<sim::Time> prefetch(Lba lba, std::uint32_t nblocks,
                                            std::vector<core::BufRef>& out) {
    (void)lba;
    (void)nblocks;
    (void)out;
    return std::nullopt;
  }

  /// Blocks until every previously issued write is durable.
  virtual void flush() = 0;
};

}  // namespace netstore::block
