// Zero-latency in-memory BlockDevice, for unit tests of layers above the
// block layer (file system semantics, journal replay) where mechanical
// timing is irrelevant.
#pragma once

#include <unordered_map>

#include "block/device.h"
#include "core/buffer_pool.h"

namespace netstore::block {

class MemBlockDevice final : public BlockDevice {
 public:
  explicit MemBlockDevice(std::uint64_t blocks) : blocks_(blocks) {}

  [[nodiscard]] std::uint64_t block_count() const override { return blocks_; }

  /// Shares the stored frames (the pool zero page for blocks never
  /// written).
  void read(Lba lba, std::uint32_t nblocks,
            std::vector<core::BufRef>& out) override {
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      auto it = store_.find(lba + i);
      out.push_back(it == store_.end()
                        ? core::BufferPool::instance().zero_page()
                        : it->second);
    }
    reads_++;
  }

  /// Stores the caller's frames (shared, copy-on-write).
  void write(Lba lba, std::span<const core::BufRef> blocks,
             WriteMode) override {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      store_[lba + i] = blocks[i];
    }
    writes_++;
  }

  void flush() override { flushes_++; }

  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }

 private:
  std::uint64_t blocks_;
  std::unordered_map<Lba, core::BufRef> store_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace netstore::block
