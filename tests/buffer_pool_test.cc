// core::BufferPool / core::BufRef unit tests (DESIGN.md §14).
//
// The contract under test: copying a BufRef shares the frame (no bytes
// move), mutable access is the single un-share point (copy-on-write when
// shared, in-place when unique), released frames recycle through the free
// list so a warmed workload allocates nothing, and the canonical zero
// page can never be scribbled on.  Telemetry (shared_pages, unshare_ops,
// alloc_fallbacks) is asserted as deltas because the pool is
// process-global and other tests in this binary also use it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "block/block.h"
#include "core/buffer_pool.h"

namespace netstore {
namespace {

using core::BufferPool;
using core::BufRef;

BufferPool& pool() { return BufferPool::instance(); }

BufRef alloc_filled(std::uint8_t byte) {
  BufRef ref = pool().alloc();
  std::memset(ref.mutable_data(), byte, block::kBlockSize);
  return ref;
}

TEST(BufRefTest, DefaultConstructedIsNull) {
  BufRef ref;
  EXPECT_FALSE(ref);
  EXPECT_EQ(ref.use_count(), 0u);
  EXPECT_FALSE(ref.shared());
}

TEST(BufRefTest, CopySharesTheFrame) {
  BufRef a = alloc_filled(0xab);
  EXPECT_EQ(a.use_count(), 1u);

  BufRef b = a;
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b.use_count(), 2u);
  EXPECT_TRUE(a.shared());
  EXPECT_EQ(a.data(), b.data());  // same frame, not a copy

  b.reset();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_FALSE(a.shared());
}

TEST(BufRefTest, MoveTransfersWithoutRefcountTraffic) {
  BufRef a = alloc_filled(0x5c);
  const std::uint8_t* frame = a.data();

  BufRef b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is null
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_EQ(b.data(), frame);
}

TEST(BufRefTest, SharedPagesGaugeTracksSharingTransitions) {
  BufRef a = alloc_filled(0x11);
  const std::uint64_t base = pool().shared_pages();

  BufRef b = a;  // 1 -> 2: frame becomes shared
  EXPECT_EQ(pool().shared_pages(), base + 1);
  BufRef c = a;  // 2 -> 3: already counted
  EXPECT_EQ(pool().shared_pages(), base + 1);

  c.reset();
  EXPECT_EQ(pool().shared_pages(), base + 1);
  b.reset();  // 2 -> 1: no longer shared
  EXPECT_EQ(pool().shared_pages(), base);
}

TEST(BufRefTest, MutableAccessOnUniqueFrameIsInPlace) {
  BufRef a = alloc_filled(0x00);
  const std::uint8_t* frame = a.data();
  const std::uint64_t unshares = pool().unshare_ops();

  a.mutable_data()[0] = 0x7f;
  EXPECT_EQ(a.data(), frame);  // no copy: same frame
  EXPECT_EQ(pool().unshare_ops(), unshares);
  EXPECT_EQ(a.data()[0], 0x7f);
}

TEST(BufRefTest, MutableAccessOnSharedFrameCopiesOnWrite) {
  BufRef a = alloc_filled(0x42);
  BufRef b = a;
  const std::uint64_t unshares = pool().unshare_ops();

  b.mutable_data()[7] = 0x99;

  EXPECT_EQ(pool().unshare_ops(), unshares + 1);
  EXPECT_NE(a.data(), b.data());  // b moved to a private copy
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_EQ(a.data()[7], 0x42);  // source untouched
  EXPECT_EQ(b.data()[7], 0x99);
  EXPECT_EQ(b.data()[8], 0x42);  // rest of the copy carried over
}

TEST(BufRefTest, ForkLikeFanOutIsolatesEveryHandle) {
  // One frame fanned out to three holders (say the disk store and two
  // caches): all three share it until each writes, and each write
  // isolates only that holder.
  BufRef image = alloc_filled(0xee);
  BufRef fork1 = image;
  BufRef fork2 = image;
  EXPECT_EQ(image.use_count(), 3u);

  fork1.mutable_data()[0] = 1;
  EXPECT_EQ(image.use_count(), 2u);  // fork2 still shares the image
  fork2.mutable_data()[0] = 2;
  EXPECT_EQ(image.use_count(), 1u);

  EXPECT_EQ(image.data()[0], 0xee);
  EXPECT_EQ(fork1.data()[0], 1);
  EXPECT_EQ(fork2.data()[0], 2);
}

TEST(BufferPoolTest, ZeroPageIsZeroAndImmutable) {
  BufRef z = pool().zero_page();
  EXPECT_TRUE(z.shared());  // the pool's pinned ref keeps it shared
  for (std::size_t i = 0; i < block::kBlockSize; ++i) {
    ASSERT_EQ(z.data()[i], 0u) << "zero page dirty at byte " << i;
  }

  // Writing through a zero-page handle must copy, never touch the
  // canonical frame.
  BufRef w = pool().zero_page();
  const std::uint8_t* canonical = w.data();
  w.mutable_data()[0] = 0xff;
  EXPECT_NE(w.data(), canonical);
  EXPECT_EQ(pool().zero_page().data()[0], 0u);
}

TEST(BufferPoolTest, ZeroPageHandlesShareOneFrame) {
  BufRef a = pool().zero_page();
  BufRef b = pool().zero_page();
  EXPECT_EQ(a.data(), b.data());
}

TEST(BufferPoolTest, ReleasedFramesAreRecycledNotReallocated) {
  constexpr int kFrames = 64;

  // Prime: make sure at least kFrames frames exist and are free.
  {
    std::vector<BufRef> prime;
    for (int i = 0; i < kFrames; ++i) prime.push_back(pool().alloc());
  }

  // A warmed alloc/free cycle must be served entirely by the free list.
  const std::uint64_t fallbacks = pool().alloc_fallbacks();
  const std::uint64_t slabs = pool().slabs();
  for (int round = 0; round < 4; ++round) {
    std::vector<BufRef> batch;
    for (int i = 0; i < kFrames; ++i) batch.push_back(pool().alloc());
  }
  EXPECT_EQ(pool().alloc_fallbacks(), fallbacks);
  EXPECT_EQ(pool().slabs(), slabs);
}

TEST(BufferPoolTest, EmptyPoolHandsFramesOutInAddressOrderAgain) {
  // Once no frame is live, placement restarts: the next batch gets the
  // same frames in the same order as the last one, whatever order they
  // were released in.  300 frames cross a slab boundary.
  constexpr int kFrames = 300;
  std::vector<const std::uint8_t*> first;
  {
    std::vector<BufRef> batch;
    for (int i = 0; i < kFrames; ++i) batch.push_back(pool().alloc());
    for (const BufRef& r : batch) first.push_back(r.data());
    for (int i = 0; i < kFrames; i += 2) batch[i].reset();
  }
  const std::uint64_t fallbacks = pool().alloc_fallbacks();
  std::vector<BufRef> again;
  for (int i = 0; i < kFrames; ++i) again.push_back(pool().alloc());
  for (int i = 0; i < kFrames; ++i) EXPECT_EQ(again[i].data(), first[i]) << i;
  EXPECT_EQ(pool().alloc_fallbacks(), fallbacks);
}

TEST(BufferPoolTest, AllocNeverReturnsALiveFrame) {
  // A frame released by one handle and re-obtained must start unique:
  // writes through the new handle can't alias the old (dead) one.
  BufRef a = alloc_filled(0x01);
  const std::uint8_t* frame = a.data();
  a.reset();

  std::vector<BufRef> fresh;
  const std::uint8_t* recycled = nullptr;
  for (int i = 0; i < 8 && recycled == nullptr; ++i) {
    fresh.push_back(pool().alloc());
    if (fresh.back().data() == frame) recycled = fresh.back().data();
  }
  ASSERT_NE(recycled, nullptr) << "freed frame not recycled within 8 allocs";
  for (const BufRef& r : fresh) EXPECT_EQ(r.use_count(), 1u);
}

using BufferPoolDeathTest = ::testing::Test;

TEST(BufferPoolDeathTest, NullDataAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BufRef null_ref;
  EXPECT_DEATH((void)null_ref.data(), "CHECK failed");
}

TEST(BufferPoolDeathTest, NullMutableAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BufRef null_ref;
  EXPECT_DEATH((void)null_ref.mutable_data(), "CHECK failed");
}

}  // namespace
}  // namespace netstore
