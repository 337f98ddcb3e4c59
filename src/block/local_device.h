// BlockDevice over a directly attached RAID-5 array.
//
// This is the device the NFS server's ext3 mounts (the array is local to
// the server) and the raw backing store of the iSCSI target.
//
// The paper's arrays sit behind a ServeRAID adapter with a battery-backed
// write-back cache, so synchronous writes (and flush barriers) are
// acknowledged at NVRAM speed while destaging to the spindles proceeds in
// the background; reads still contend with that destaging for the
// mechanisms.
#pragma once

#include "block/device.h"
#include "block/raid5.h"
#include "obs/trace.h"
#include "sim/env.h"

namespace netstore::block {

class LocalBlockDevice final : public BlockDevice {
 public:
  /// Time the adapter takes to acknowledge a synchronous write or a
  /// flush barrier from its NVRAM.
  static constexpr sim::Duration kNvramAck = sim::microseconds(80);

  LocalBlockDevice(sim::Env& env, Raid5Array& array)
      : env_(env), array_(array) {}

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

  /// The array's store adopts (shares) the frames.  The array destages
  /// in the background; a synchronous write waits only for the NVRAM
  /// ack.
  void write(Lba lba, std::span<const core::BufRef> blocks,
             WriteMode mode) override {
    array_.write(env_.now(), lba, blocks);
    if (mode == WriteMode::kSync) ack_from_nvram();
  }

  void flush() override { ack_from_nvram(); }

  std::optional<sim::Time> prefetch(Lba lba, std::uint32_t nblocks,
                                    std::vector<core::BufRef>& out) override {
    return array_.read(env_.now(), lba, nblocks, out);
  }

 private:
  void ack_from_nvram() {
    charge_media(kNvramAck);
    env_.advance(kNvramAck);
  }

  /// Media time the caller is about to wait out (trace attribution).
  void charge_media(sim::Duration d) {
    if (auto* tr = env_.tracer(); tr != nullptr && d > 0) {
      tr->charge(obs::Component::kMedia, d);
    }
  }

  sim::Env& env_;
  Raid5Array& array_;
};

}  // namespace netstore::block
