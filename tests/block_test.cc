// Unit tests for the block layer: disk timing, RAID-5 data and parity
// correctness (degraded mode, rebuild, a second failure), caches.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "block/disk.h"
#include "block/local_device.h"
#include "block/mem_device.h"
#include "block/raid5.h"
#include "block/timed_cache.h"
#include "sim/rng.h"

namespace netstore::block {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return v;
}

// Bytes <-> frames: the block API moves one pool frame per block, so the
// tests stage their byte patterns through these two helpers.
std::vector<core::BufRef> frames(const std::vector<std::uint8_t>& data) {
  std::vector<core::BufRef> out;
  for (std::size_t off = 0; off < data.size(); off += kBlockSize) {
    core::BufRef f = core::BufferPool::instance().alloc();
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(off), kBlockSize,
                f.mutable_block().begin());
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<std::uint8_t> bytes(const std::vector<core::BufRef>& blocks) {
  std::vector<std::uint8_t> out;
  for (const core::BufRef& b : blocks) {
    out.insert(out.end(), b.block().begin(), b.block().end());
  }
  return out;
}

TEST(DiskTest, SequentialStreamsWithoutPositioning) {
  DiskConfig cfg;
  Disk disk(cfg);
  const sim::Time t1 = disk.submit(0, 0, 1, false);
  const sim::Time t2 = disk.submit(t1, 1, 1, false);
  // Second access continues the first: transfer time only.
  const auto transfer = t2 - t1;
  EXPECT_LT(transfer, sim::microseconds(200));
}

TEST(DiskTest, RandomAccessPaysPositioning) {
  DiskConfig cfg;
  Disk disk(cfg);
  const sim::Time t1 = disk.submit(0, 0, 1, false);
  const sim::Time t2 = disk.submit(t1, cfg.block_count / 2, 1, false);
  EXPECT_GT(t2 - t1, cfg.mean_rotational_latency);
}

TEST(DiskTest, ReadsDontQueueBehindWrites) {
  DiskConfig cfg;
  Disk disk(cfg);
  // Deep write backlog.
  sim::Time w = 0;
  for (int i = 0; i < 100; ++i) w = disk.submit(w, 1000 + i * 97, 1, true);
  ASSERT_GT(w, sim::milliseconds(10));
  const sim::Time r = disk.submit(0, 5, 1, false);
  EXPECT_LT(r, sim::milliseconds(10));
}

class Raid5Test : public ::testing::Test {
 protected:
  Raid5Test() {
    cfg_.disk.block_count = 4096;
    raid_ = std::make_unique<Raid5Array>(cfg_);
  }
  Raid5Config cfg_;
  std::unique_ptr<Raid5Array> raid_;
};

TEST_F(Raid5Test, CapacityIsDataDisks) {
  EXPECT_EQ(raid_->block_count(), 4096u * 4);
}

TEST_F(Raid5Test, WriteReadRoundTrip) {
  const auto data = pattern(kBlockSize * 3, 7);
  const std::vector<core::BufRef> in = frames(data);
  raid_->write(0, 100, in);
  std::vector<core::BufRef> out;
  raid_->read(0, 100, 3, out);
  EXPECT_EQ(data, bytes(out));
  EXPECT_EQ(out[0].data(), in[0].data());  // adopted, not copied
  out.clear();
  raid_->read(0, 103, 1, out);
  EXPECT_EQ(out[0].block(), BlockBuf{});  // never written: zeros
}

TEST_F(Raid5Test, FullStripeWriteRoundTrip) {
  const std::uint32_t stripe = cfg_.stripe_unit_blocks * (cfg_.num_disks - 1);
  const auto data = pattern(kBlockSize * stripe, 9);
  raid_->write(0, 0, frames(data));
  std::vector<core::BufRef> out;
  raid_->read(0, 0, stripe, out);
  EXPECT_EQ(data, bytes(out));
}

TEST_F(Raid5Test, DegradedReadReconstructsFromParity) {
  const auto data = pattern(kBlockSize * 64, 3);
  raid_->write(0, 0, frames(data));
  raid_->fail_disk(1);
  ASSERT_TRUE(raid_->degraded());
  std::vector<core::BufRef> out;
  raid_->read(0, 0, 64, out);
  EXPECT_EQ(data, bytes(out));
}

TEST_F(Raid5Test, DegradedWriteThenRebuild) {
  const auto before = pattern(kBlockSize * 64, 3);
  raid_->write(0, 0, frames(before));
  raid_->fail_disk(2);
  const auto after = pattern(kBlockSize * 64, 99);
  raid_->write(0, 0, frames(after));
  std::vector<core::BufRef> out;
  raid_->read(0, 0, 64, out);
  EXPECT_EQ(after, bytes(out));

  raid_->rebuild_disk(2);
  ASSERT_FALSE(raid_->degraded());
  out.clear();
  raid_->read(0, 0, 64, out);
  EXPECT_EQ(after, bytes(out));
}

TEST_F(Raid5Test, RandomizedParityInvariant) {
  // Property: after arbitrary writes, failing any single disk must not
  // lose data.
  sim::Rng rng(5);
  std::vector<std::uint8_t> image(kBlockSize * 256, 0);
  for (int op = 0; op < 200; ++op) {
    const auto lba = rng.uniform(250);
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform(6));
    auto data = pattern(kBlockSize * n, static_cast<std::uint8_t>(rng.next()));
    raid_->write(0, lba, frames(data));
    std::copy(data.begin(), data.end(),
              image.begin() + static_cast<std::size_t>(lba) * kBlockSize);
  }
  const auto victim = static_cast<std::uint32_t>(rng.uniform(5));
  raid_->fail_disk(victim);
  std::vector<core::BufRef> out;
  raid_->read(0, 0, 256, out);
  EXPECT_EQ(image, bytes(out));
}

TEST_F(Raid5Test, DegradedPartialWritesSurviveRebuildAndASecondFailure) {
  // Seeded random bytes, so no two blocks of a stripe cancel in parity.
  sim::Rng rng(17);
  const auto random_bytes = [&rng](std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (std::uint8_t& b : v) b = static_cast<std::uint8_t>(rng.next());
    return v;
  };
  const auto read_all = [this] {
    std::vector<core::BufRef> out;
    raid_->read(0, 0, 256, out);
    return bytes(out);
  };
  // Four full stripes.  Stripe 1 keeps its parity on member 3; stripes
  // 0, 2 and 3 keep one data unit there.  So small writes after member 3
  // fails take both degraded branches: folding the new block into parity
  // and writing data with no parity left to update.
  std::vector<std::uint8_t> image = random_bytes(kBlockSize * 256);
  const auto small_writes = [&](int count) {
    for (int op = 0; op < count; ++op) {
      const auto n = static_cast<std::uint32_t>(1 + rng.uniform(6));
      const Lba lba = rng.uniform(256 - n + 1);
      const auto data = random_bytes(kBlockSize * n);
      raid_->write(0, lba, frames(data));
      std::copy(data.begin(), data.end(),
                image.begin() + static_cast<std::ptrdiff_t>(lba * kBlockSize));
    }
  };
  raid_->write(0, 0, frames(image));
  raid_->fail_disk(3);
  small_writes(200);
  EXPECT_EQ(image, read_all());

  raid_->rebuild_disk(3);
  ASSERT_FALSE(raid_->degraded());
  EXPECT_EQ(image, read_all());

  // Healthy writes between the failures: any parity left over from the
  // first one would now be stale.
  small_writes(50);
  raid_->fail_disk(0);
  EXPECT_EQ(image, read_all());
  raid_->rebuild_disk(0);
  ASSERT_FALSE(raid_->degraded());
  EXPECT_EQ(image, read_all());
}

TEST_F(Raid5Test, UnwrittenUnitOfAFailedMemberReadsAsZeros) {
  // Stripe 0 keeps parity on member 4 and unit u on member u, so row 0
  // holds logical blocks 0, 16, 32 and 48.  Write every unit of the row
  // but member 2's.
  const Lba unit = cfg_.stripe_unit_blocks;
  const std::vector<Lba> written{0, unit, 3 * unit};
  const Lba unwritten = 2 * unit;
  std::vector<std::vector<std::uint8_t>> data;
  for (std::size_t k = 0; k < written.size(); ++k) {
    data.push_back(pattern(kBlockSize, static_cast<std::uint8_t>(40 * k + 1)));
    raid_->write(0, written[k], frames(data.back()));
  }
  const auto read_one = [this](Lba lba) {
    std::vector<core::BufRef> out;
    raid_->read(0, lba, 1, out);
    return bytes(out);
  };
  const auto check_row = [&] {
    EXPECT_EQ(read_one(unwritten), std::vector<std::uint8_t>(kBlockSize, 0));
    for (std::size_t k = 0; k < written.size(); ++k) {
      EXPECT_EQ(read_one(written[k]), data[k]) << "unit at " << written[k];
    }
  };
  raid_->fail_disk(2);
  check_row();
  raid_->rebuild_disk(2);
  ASSERT_FALSE(raid_->degraded());
  check_row();
}

TEST(TimedCacheTest, WritesAckAtMemorySpeed) {
  Raid5Config cfg;
  cfg.disk.block_count = 4096;
  Raid5Array raid(cfg);
  TimedCache cache(raid, 1024, 512);
  const auto data = pattern(kBlockSize, 1);
  const sim::Time done = cache.write(sim::milliseconds(1), 10, frames(data));
  EXPECT_EQ(done, sim::milliseconds(1));  // acknowledged from cache
  EXPECT_EQ(cache.dirty_blocks(), 1u);
}

TEST(TimedCacheTest, ReadHitsAfterWrite) {
  Raid5Config cfg;
  cfg.disk.block_count = 4096;
  Raid5Array raid(cfg);
  TimedCache cache(raid, 1024, 512);
  const auto data = pattern(kBlockSize, 2);
  cache.write(0, 5, frames(data));
  std::vector<core::BufRef> out;
  const sim::Time done = cache.read(sim::seconds(1), 5, 1, out);
  EXPECT_EQ(done, sim::seconds(1));  // hit: no disk time
  EXPECT_EQ(data, bytes(out));
}

TEST(TimedCacheTest, SyncMakesDurableAndCrashLosesDirty) {
  Raid5Config cfg;
  cfg.disk.block_count = 4096;
  Raid5Array raid(cfg);
  TimedCache cache(raid, 1024, 512);
  const auto a = pattern(kBlockSize, 3);
  const auto b = pattern(kBlockSize, 4);
  cache.write(0, 7, frames(a));
  cache.sync(0);
  cache.write(0, 8, frames(b));
  cache.crash();  // block 8 lost, block 7 durable
  std::vector<core::BufRef> out;
  cache.read(0, 7, 1, out);
  EXPECT_EQ(a, bytes(out));
  out.clear();
  cache.read(0, 8, 1, out);
  EXPECT_EQ(bytes(out), std::vector<std::uint8_t>(kBlockSize, 0));
}

TEST(LocalDeviceTest, SyncWriteAcksFromNvram) {
  sim::Env env;
  Raid5Config cfg;
  cfg.disk.block_count = 4096;
  Raid5Array raid(cfg);
  LocalBlockDevice dev(env, raid);
  const auto data = pattern(kBlockSize, 8);
  dev.write(11, frames(data), WriteMode::kSync);
  EXPECT_LT(env.now(), sim::milliseconds(1));  // NVRAM ack, not spindle time
  std::vector<core::BufRef> out;
  dev.read(11, 1, out);
  EXPECT_EQ(data, bytes(out));
}

}  // namespace
}  // namespace netstore::block
