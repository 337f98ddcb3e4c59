// Behavioural contract for fs::PageCache, written against the std::list
// LRU implementation and kept byte-for-byte identical across the intrusive
// rewrite: eviction ordering, drop_inode racing in-flight read-ahead, and
// dirty high-water write-back must all survive the data-structure swap.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "block/block.h"
#include "block/mem_device.h"
#include "core/buffer_pool.h"
#include "fs/page_cache.h"
#include "sim/env.h"

namespace netstore::fs {
namespace {

using block::BlockBuf;
using block::kBlockSize;
using block::Lba;

constexpr Ino kInoA = 10;
constexpr Ino kInoB = 11;
constexpr Ino kInoC = 12;

core::BufRef make_block(std::uint8_t fill) {
  core::BufRef b = core::BufferPool::instance().alloc();
  b.mutable_block().fill(fill);
  return b;
}

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheParams small_params() {
    PageCacheParams p;
    p.capacity_pages = 8;
    p.dirty_high_water = 4;
    return p;
  }

  sim::Env env_;
  block::MemBlockDevice dev_{1 << 16};
};

TEST_F(PageCacheTest, EvictionFollowsLruOrderAmongCleanPages) {
  PageCache cache(env_, dev_, small_params());
  const core::BufRef blk = make_block(0x5a);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.insert_clean(kInoA, i, /*lba=*/100 + i, blk, env_.now());
  }
  ASSERT_EQ(cache.resident_pages(), 8u);

  // Touch pages 0 and 1 so indices 2.. are now the coldest.
  EXPECT_NE(cache.find(kInoA, 0), nullptr);
  EXPECT_NE(cache.find(kInoA, 1), nullptr);

  // Two inserts evict the two coldest pages: 2, then 3.
  cache.insert_clean(kInoB, 0, 200, blk, env_.now());
  cache.insert_clean(kInoB, 1, 201, blk, env_.now());
  EXPECT_TRUE(cache.contains(kInoA, 0));
  EXPECT_TRUE(cache.contains(kInoA, 1));
  EXPECT_FALSE(cache.contains(kInoA, 2));
  EXPECT_FALSE(cache.contains(kInoA, 3));
  EXPECT_TRUE(cache.contains(kInoA, 4));
  EXPECT_EQ(cache.resident_pages(), 8u);
}

TEST_F(PageCacheTest, EvictionSkipsDirtyPagesWhileCleanOnesRemain) {
  PageCache cache(env_, dev_, small_params());
  const core::BufRef blk = make_block(0x11);
  // Coldest two pages are dirty; they must survive eviction while clean
  // pages exist.
  cache.write_page(kInoA, 0, 100);
  cache.write_page(kInoA, 1, 101);
  for (std::uint64_t i = 2; i < 8; ++i) {
    cache.insert_clean(kInoA, i, 100 + i, blk, env_.now());
  }
  cache.insert_clean(kInoB, 0, 200, blk, env_.now());
  EXPECT_TRUE(cache.contains(kInoA, 0));
  EXPECT_TRUE(cache.contains(kInoA, 1));
  EXPECT_FALSE(cache.contains(kInoA, 2));
}

TEST_F(PageCacheTest, AllDirtyCapacityPressureWritesBackThenEvicts) {
  PageCacheParams p = small_params();
  p.dirty_high_water = 100;  // above capacity: pressure comes from eviction
  PageCache cache(env_, dev_, p);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.write_page(kInoA, i, 100 + i);
  }
  ASSERT_EQ(cache.dirty_pages(), 8u);
  // The 9th write finds no clean victim: the cache must write everything
  // back (one coalesced run: LBAs are contiguous) and then evict.
  const std::uint64_t writes_before = dev_.writes();
  cache.write_page(kInoA, 8, 108);
  EXPECT_GT(dev_.writes(), writes_before);
  EXPECT_LE(cache.resident_pages(), 8u);
  EXPECT_TRUE(cache.contains(kInoA, 8));
}

TEST_F(PageCacheTest, DirtyHighWaterTriggersCoalescedWriteback) {
  PageCache cache(env_, dev_, small_params());  // high water = 4
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.write_page(kInoA, i, 300 + i);
    EXPECT_EQ(dev_.writes(), 0u) << "flushed below the high-water mark";
  }
  EXPECT_EQ(cache.dirty_pages(), 4u);
  // Crossing the mark pushes everything out, and the LBA-contiguous run
  // must coalesce into a single device request.
  cache.write_page(kInoA, 4, 304);
  EXPECT_EQ(dev_.writes(), 1u);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(cache.stats().writeback_pages.value(), 5u);
  // Pages stay resident (clean) after write-back.
  EXPECT_TRUE(cache.contains(kInoA, 0));
}

TEST_F(PageCacheTest, WritebackCoalescesRunsAcrossDiscontiguousLbas) {
  PageCache cache(env_, dev_, small_params());
  // Two separate LBA runs: {500,501,502} and {900,901}.
  cache.write_page(kInoA, 0, 500);
  cache.write_page(kInoA, 1, 501);
  cache.write_page(kInoA, 2, 502);
  cache.write_page(kInoB, 0, 900);
  cache.flush_all(false);
  EXPECT_EQ(dev_.writes(), 2u);
  EXPECT_EQ(cache.dirty_pages(), 0u);
}

TEST_F(PageCacheTest, DropInodeDiscardsInFlightReadahead) {
  PageCache cache(env_, dev_, small_params());
  const core::BufRef blk = make_block(0x77);
  // A read-ahead insert whose data is only valid in the future.
  const sim::Time ready = env_.now() + sim::milliseconds(5);
  cache.insert_clean(kInoA, 3, 103, blk, ready);
  EXPECT_EQ(cache.stats().readahead_pages.value(), 1u);
  ASSERT_TRUE(cache.contains(kInoA, 3));

  // Truncate-to-zero while the read-ahead is still in flight: the page is
  // gone, nothing blocks, and the clock must not jump to `ready`.
  cache.drop_inode(kInoA);
  EXPECT_FALSE(cache.contains(kInoA, 3));
  EXPECT_EQ(cache.find(kInoA, 3), nullptr);
  EXPECT_EQ(env_.now(), sim::Time{0});
  // A fresh demand insert of the same page works normally afterwards.
  cache.insert_clean(kInoA, 3, 103, blk, env_.now());
  EXPECT_NE(cache.find(kInoA, 3), nullptr);
}

TEST_F(PageCacheTest, DropInodeFromIndexKeepsEarlierPagesAndDirtyCount) {
  PageCache cache(env_, dev_, small_params());
  cache.write_page(kInoA, 0, 100);
  cache.write_page(kInoA, 1, 101);
  cache.write_page(kInoA, 2, 102);
  cache.write_page(kInoB, 0, 200);
  ASSERT_EQ(cache.dirty_pages(), 4u);

  cache.drop_inode(kInoA, /*from_index=*/1);  // truncate, keeps page 0
  EXPECT_TRUE(cache.contains(kInoA, 0));
  EXPECT_FALSE(cache.contains(kInoA, 1));
  EXPECT_FALSE(cache.contains(kInoA, 2));
  EXPECT_TRUE(cache.contains(kInoB, 0));
  EXPECT_EQ(cache.dirty_pages(), 2u);
  EXPECT_EQ(cache.resident_pages(), 2u);
  // Dropped dirty pages never reach the device: only the two survivors
  // (LBAs 100 and 200, discontiguous, so one request each) get written.
  cache.flush_all(false);
  EXPECT_EQ(dev_.writes(), 2u);
}

TEST_F(PageCacheTest, FindBlocksUntilReadaheadCompletes) {
  PageCache cache(env_, dev_, small_params());
  const core::BufRef blk = make_block(0x42);
  const sim::Time ready = env_.now() + sim::milliseconds(3);
  cache.insert_clean(kInoA, 0, 100, blk, ready);
  const core::BufRef* got = cache.find(kInoA, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(env_.now(), ready);
  EXPECT_EQ(got->data()[0], 0x42);
}

TEST_F(PageCacheTest, AgedFlusherWritesOldDirtyPages) {
  PageCacheParams p = small_params();
  p.flush_interval = sim::seconds(5);
  p.max_dirty_age = sim::seconds(30);
  PageCache cache(env_, dev_, p);
  cache.write_page(kInoA, 0, 100);
  // Young dirty data survives early flusher ticks...
  env_.advance(sim::seconds(10));
  EXPECT_EQ(cache.dirty_pages(), 1u);
  // ...but once it ages past max_dirty_age the periodic flusher pushes it.
  env_.advance(sim::seconds(30));
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_GE(dev_.writes(), 1u);
}

TEST_F(PageCacheTest, InsertCleanNeverClobbersDirtyData) {
  PageCache cache(env_, dev_, small_params());
  BlockBuf& page = cache.write_page(kInoA, 0, 100);
  page[0] = 0xee;
  const core::BufRef stale = make_block(0x00);
  cache.insert_clean(kInoA, 0, 100, stale, env_.now());
  const core::BufRef* got = cache.find(kInoA, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->data()[0], 0xee);
  EXPECT_EQ(cache.dirty_pages(), 1u);
}

TEST_F(PageCacheTest, ClearFlushesAndEmptiesCrashDiscards) {
  PageCache cache(env_, dev_, small_params());
  cache.write_page(kInoA, 0, 100);
  cache.clear();
  EXPECT_EQ(cache.resident_pages(), 0u);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(dev_.writes(), 1u);
  EXPECT_GE(dev_.flushes(), 1u);

  cache.write_page(kInoA, 1, 101);
  cache.crash();
  EXPECT_EQ(cache.resident_pages(), 0u);
  EXPECT_EQ(dev_.writes(), 1u);  // dirty data lost, not written
  env_.drain();                  // orphaned flusher events stay no-ops
}

TEST_F(PageCacheTest, ForEachPageWalksOneInodeAndKeepsLruOrder) {
  PageCache cache(env_, small_params());  // device-less, as the NFS client's
  const core::BufRef blk = make_block(0x33);
  // Interleaved inserts: LRU order, coldest first, is A0 B0 A1 B1 ... B3.
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert_clean(kInoA, i, 0, blk, env_.now());
    cache.insert_clean(kInoB, i, 0, blk, env_.now());
  }
  std::vector<std::uint64_t> seen;
  cache.for_each_page(kInoA, [&](std::uint64_t index, const core::BufRef& d) {
    EXPECT_EQ(d.data()[0], 0x33);
    seen.push_back(index);
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 2, 1, 0}));

  // Had the walk touched A's pages, B's would now be the coldest.
  cache.insert_clean(kInoC, 0, 0, blk, env_.now());
  EXPECT_FALSE(cache.contains(kInoA, 0));
  EXPECT_TRUE(cache.contains(kInoB, 0));
  cache.insert_clean(kInoC, 1, 0, blk, env_.now());
  EXPECT_FALSE(cache.contains(kInoB, 0));
  EXPECT_TRUE(cache.contains(kInoA, 1));
}

TEST_F(PageCacheTest, PageNeitherCountsAHitNorWaitsForReadahead) {
  PageCache cache(env_, small_params());
  const core::BufRef blk = make_block(0x42);
  const sim::Time ready = env_.now() + sim::milliseconds(3);
  cache.insert_clean(kInoA, 0, 0, blk, ready);
  core::BufRef* got = cache.page(kInoA, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->data()[0], 0x42);
  EXPECT_EQ(cache.page(kInoA, 1), nullptr);
  EXPECT_EQ(env_.now(), sim::Time{0});
  EXPECT_EQ(cache.stats().hits.value(), 0u);
  EXPECT_EQ(cache.stats().misses.value(), 0u);
}

// A cache built without a device is write-through: it never holds a dirty
// page, so every path that would create or write one back aborts.
using PageCacheDeathTest = PageCacheTest;

TEST_F(PageCacheDeathTest, WriteThroughCacheRefusesDirtyPages) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PageCache cache(env_, small_params());
  EXPECT_DEATH(cache.write_page(kInoA, 0, 100), "CHECK failed");
  EXPECT_DEATH(cache.install_dirty(kInoA, 0, 100, make_block(0x01)),
               "CHECK failed");
  EXPECT_DEATH(cache.flush_inode(kInoA), "CHECK failed");
  EXPECT_DEATH(cache.flush_all(/*wait=*/true), "CHECK failed");
  EXPECT_DEATH(cache.clear(), "CHECK failed");
}

}  // namespace
}  // namespace netstore::fs
