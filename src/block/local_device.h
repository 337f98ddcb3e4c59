// BlockDevice over a directly attached RAID-5 array.
//
// This is the device the NFS server's ext3 mounts (the array is local to
// the server) and the raw backing store of the iSCSI target.
//
// The paper's arrays sit behind a ServeRAID adapter with a battery-backed
// write-back cache, so synchronous writes (and flush barriers) are
// acknowledged at NVRAM speed while destaging to the spindles proceeds in
// the background; reads still contend with that destaging for the
// mechanisms.  Set `nvram_ack` to 0 to model a write-through controller.
#pragma once

#include <algorithm>

#include "block/device.h"
#include "block/raid5.h"
#include "obs/trace.h"
#include "sim/env.h"

namespace netstore::block {

class LocalBlockDevice final : public BlockDevice {
 public:
  LocalBlockDevice(sim::Env& env, Raid5Array& array,
                   sim::Duration nvram_ack = sim::microseconds(80))
      : env_(env), array_(array), nvram_ack_(nvram_ack) {}

  [[nodiscard]] std::uint64_t block_count() const override {
    return array_.block_count();
  }

  /// Shares the array's stored frames.
  void read(Lba lba, std::uint32_t nblocks,
            std::vector<core::BufRef>& out) override {
    const sim::Time done = array_.read(env_.now(), lba, nblocks, out);
    charge_media(done - env_.now());
    env_.advance_to(done);
  }

  /// The member disks adopt (share) the frames.
  void write(Lba lba, std::span<const core::BufRef> blocks,
             WriteMode mode) override {
    finish_write(array_.write(env_.now(), lba, blocks), mode);
  }

  void flush() override {
    if (nvram_ack_ > 0) {
      charge_media(nvram_ack_);
      env_.advance(nvram_ack_);
    } else {
      charge_media(last_write_done_ - env_.now());
      env_.advance_to(last_write_done_);
    }
  }

  std::optional<sim::Time> prefetch(Lba lba, std::uint32_t nblocks,
                                    std::vector<core::BufRef>& out) override {
    return array_.read(env_.now(), lba, nblocks, out);
  }

  /// Test hook: waits until the spindles are idle (full destage).
  void drain_to_media() { env_.advance_to(last_write_done_); }

 private:
  void finish_write(sim::Time done, WriteMode mode) {
    last_write_done_ = std::max(last_write_done_, done);
    if (mode == WriteMode::kSync) {
      if (nvram_ack_ > 0) {
        charge_media(nvram_ack_);
        env_.advance(nvram_ack_);  // durable in controller NVRAM
      } else {
        charge_media(done - env_.now());
        env_.advance_to(done);
      }
    }
  }

  /// Media time the caller is about to wait out (trace attribution).
  void charge_media(sim::Duration d) {
    if (auto* tr = env_.tracer(); tr != nullptr && d > 0) {
      tr->charge(obs::Component::kMedia, d);
    }
  }

  sim::Env& env_;
  Raid5Array& array_;
  sim::Duration nvram_ack_;
  sim::Time last_write_done_ = 0;
};

}  // namespace netstore::block
