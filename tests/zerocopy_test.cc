// Zero-copy data plane tests (DESIGN.md §17).
//
// The contracts under test:
//   * Golden identity: a mixed workload produces a committed observable
//     digest on every protocol stack, NFSv4 delegation included — moving
//     references instead of bytes changes nothing the simulation
//     observes.
//   * Fleet determinism survives the plane: fleet runs stay
//     byte-identical run to run while frames are shared across layers.
//   * CoW aliasing safety: adopting a frame across a layer crossing
//     aliases it; mutating either side un-shares first, so no alias ever
//     sees the other's writes.
//   * Charging: a warm cached read costs exactly one charged copy — the
//     user-buffer boundary — and nothing below it.
//   * Steady state: a long warm read loop, at every I/O size, allocates
//     no frame outside the free list and copies only at the boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/fleet.h"
#include "core/iovec.h"
#include "core/testbed.h"
#include "obs/report.h"
#include "sim/rng.h"

namespace netstore {
namespace {

using core::BufferPool;
using core::Fleet;
using core::Protocol;
using core::StatsSnapshot;
using core::Testbed;
using core::WorkloadConfig;

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* data,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Mixed data + meta-data workload covering every converted crossing:
// streaming writes (write-behind, gather write-back), fsync, cold
// sequential reads with read-ahead, warm re-reads, sub-block unaligned
// I/O, holes, truncation and renames.  Folds the returned bytes and the
// full traffic snapshot into one digest string.
std::string workload_digest(Protocol proto, std::uint64_t seed) {
  Testbed bed(proto);
  sim::Rng rng(seed);

  constexpr int kFiles = 10;
  constexpr std::uint32_t kIoBytes = 32 * 1024;
  std::uint64_t data_hash = 0xcbf29ce484222325ull;

  std::vector<std::uint8_t> buf(kIoBytes);
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/z" + std::to_string(i);
    auto fd = bed.vfs().creat(path, 0644);
    if (!fd.ok()) return {};
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    // Aligned body plus an unaligned sub-block tail; every third file
    // gets a hole in the middle.
    (void)bed.vfs().write(*fd, 0, buf);
    const std::uint64_t tail_off =
        kIoBytes + (i % 3 == 0 ? 2 * kIoBytes : 0) + 100 + i * 7;
    (void)bed.vfs().write(
        *fd, tail_off, std::span<const std::uint8_t>{buf.data(), 777});
    if (rng.chance(0.5)) (void)bed.vfs().fsync(*fd);
    (void)bed.vfs().close(*fd);
  }

  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/z" + std::to_string(i);
    if (i % 4 == 0) {
      (void)bed.vfs().rename(path, path + "r");
      continue;
    }
    auto fd = bed.vfs().open(path);
    if (!fd.ok()) return {};
    std::vector<std::uint8_t> rd(4 * kIoBytes);
    auto got = bed.vfs().read(*fd, 0, rd);            // cold: wire + media
    if (!got.ok()) return {};
    data_hash = fnv1a(data_hash, rd.data(), *got);
    auto again = bed.vfs().read(*fd, 0, rd);          // warm: cache only
    if (!again.ok()) return {};
    data_hash = fnv1a(data_hash, rd.data(), *again);
    std::vector<std::uint8_t> small(513);
    auto sub = bed.vfs().read(*fd, 4096 - 17, small);  // unaligned
    if (!sub.ok()) return {};
    data_hash = fnv1a(data_hash, small.data(), *sub);
    (void)bed.vfs().close(*fd);
  }
  bed.settle();

  const StatsSnapshot s = bed.snapshot();
  std::ostringstream os;
  os << to_string(proto) << " now=" << s.now << " msgs=" << s.messages
     << " raw=" << s.raw_messages << " bytes=" << s.bytes
     << " rexmit=" << s.retransmissions << " c2s=" << s.c2s_messages << "/"
     << s.c2s_bytes << " s2c=" << s.s2c_messages << "/" << s.s2c_bytes
     << std::hexfloat << " scpu=" << s.server_cpu_busy
     << " ccpu=" << s.client_cpu_busy << std::defaultfloat
     << " end=" << bed.env().now() << " data=" << std::hex << data_hash;
  return os.str();
}

// workload_digest() at seed 0x5eed, committed.  These digests are the
// oracle for data-path refactors: moving references instead of bytes must
// change nothing the simulation observes.  Changing one is a change to
// what the simulator computes and must be made on purpose.
std::string golden_digest(Protocol p) {
  switch (p) {
    case Protocol::kNfsV2:
      return "NFS v2 now=12120772924 msgs=156 raw=312 bytes=844222 rexmit=0 "
             "c2s=156/361254 s2c=156/482968 scpu=65030000 ccpu=10175000 "
             "end=12120772924 data=190c12ab6fe0636e";
    case Protocol::kNfsV3:
      return "NFS v3 now=12088518188 msgs=128 raw=256 bytes=578998 rexmit=0 "
             "c2s=128/356822 s2c=128/222176 scpu=53990000 ccpu=10175000 "
             "end=12088518188 data=190c12ab6fe0636e";
    case Protocol::kNfsV4:
      return "NFS v4 now=12125737107 msgs=168 raw=336 bytes=591382 rexmit=0 "
             "c2s=168/362194 s2c=168/229188 scpu=70040000 ccpu=10175000 "
             "end=12125737107 data=190c12ab6fe0636e";
    case Protocol::kNfsV4Delegation:
      return "NFS v4 + directory delegation now=12057925253 msgs=58 raw=116 "
             "bytes=555905 rexmit=0 c2s=58/347161 s2c=58/208744 "
             "scpu=30665000 ccpu=10175000 end=12057925253 "
             "data=190c12ab6fe0636e";
    default:
      return "iSCSI now=12037355656 msgs=148 raw=296 bytes=740224 rexmit=0 "
             "c2s=148/712128 s2c=148/28096 scpu=36785000 ccpu=46010000 "
             "end=12037355656 data=190c12ab6fe0636e";
  }
}

class ZerocopyIdentity : public ::testing::TestWithParam<Protocol> {};

TEST_P(ZerocopyIdentity, DigestMatchesGolden) {
  EXPECT_EQ(workload_digest(GetParam(), 0x5eedull), golden_digest(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllStacks, ZerocopyIdentity,
                         ::testing::Values(Protocol::kNfsV2, Protocol::kNfsV3,
                                           Protocol::kNfsV4,
                                           Protocol::kNfsV4Delegation,
                                           Protocol::kIscsi),
                         [](const auto& info) {
                           switch (info.param) {
                             case Protocol::kNfsV2: return "NfsV2";
                             case Protocol::kNfsV3: return "NfsV3";
                             case Protocol::kNfsV4: return "NfsV4";
                             case Protocol::kNfsV4Delegation:
                               return "NfsV4Delegation";
                             default: return "Iscsi";
                           }
                         });

// Fleet digest: every fleet.* metric via the report JSON plus the
// world's traffic snapshot (same shape as fleet_test's).
std::string fleet_digest(Fleet& fleet) {
  obs::Report report("zerocopy_test", "digest");
  report.add_snapshot("fleet", fleet.world().metrics().snapshot());
  const StatsSnapshot s = fleet.world().snapshot();
  std::ostringstream os;
  os << report.json() << "\nnow=" << s.now << " msgs=" << s.messages
     << " bytes=" << s.bytes << " raw=" << s.raw_messages;
  return os.str();
}

// Run-to-run identity of the fleet drive: frames shared across layers
// must not perturb determinism.  The name predates the removal of the
// sharded drive; only the single-world case remains.
TEST(ZerocopyFleet, RunToRunIdenticalAcrossShardCounts) {
  WorkloadConfig w;
  w.clients = 64;
  w.ops = 300;
  w.seed = 99;
  std::string digests[2];
  for (std::string& d : digests) {
    auto world = std::make_unique<Testbed>(Protocol::kNfsV3);
    world->quiesce();
    Fleet fleet(std::move(world), w);
    fleet.setup();
    fleet.run();
    d = fleet_digest(fleet);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// Aliasing a frame across a crossing is safe because mutable_data() is
// the single un-share point: whoever writes first gets a private copy.
TEST(ZerocopyCow, MutatingOneAliasNeverTouchesTheOther) {
  auto& pool = BufferPool::instance();
  core::BufRef a = pool.alloc();
  std::memset(a.mutable_data(), 0x11, block::kBlockSize);

  core::BufRef b = a;  // the adoption a layer crossing performs
  EXPECT_TRUE(a.shared());
  EXPECT_TRUE(b.shared());
  EXPECT_EQ(a.data(), b.data());

  const std::uint64_t unshares_before = pool.unshare_ops();
  std::memset(b.mutable_data(), 0x22, block::kBlockSize);  // un-shares b
  EXPECT_EQ(pool.unshare_ops(), unshares_before + 1);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a.data()[0], 0x11);
  EXPECT_EQ(b.data()[0], 0x22);

  // And the already-private frame writes in place: no further un-share.
  std::memset(b.mutable_data(), 0x33, block::kBlockSize);
  EXPECT_EQ(pool.unshare_ops(), unshares_before + 1);
}

// Stack-level CoW: after a read leaves client and server caches holding
// aliases of the same frames, overwriting the file must yield the new
// bytes on the next read — and a slice view taken before the overwrite
// must keep showing the old bytes.
TEST(ZerocopyCow, OverwriteAfterSharedReadYieldsNewBytes) {
  Testbed bed(Protocol::kNfsV3);
  constexpr std::uint32_t kBytes = 16 * 1024;

  auto fd = bed.vfs().creat("/cow", 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::uint8_t> old_data(kBytes, 0xAA);
  ASSERT_TRUE(bed.vfs().write(*fd, 0, old_data).ok());
  ASSERT_TRUE(bed.vfs().fsync(*fd).ok());

  std::vector<std::uint8_t> rd(kBytes);
  ASSERT_TRUE(bed.vfs().read(*fd, 0, rd).ok());  // caches now share frames
  EXPECT_EQ(rd[0], 0xAA);

  std::vector<std::uint8_t> new_data(kBytes, 0xBB);
  ASSERT_TRUE(bed.vfs().write(*fd, 0, new_data).ok());
  ASSERT_TRUE(bed.vfs().read(*fd, 0, rd).ok());
  EXPECT_EQ(rd[0], 0xBB);
  EXPECT_EQ(rd[kBytes - 1], 0xBB);
  ASSERT_TRUE(bed.vfs().close(*fd).ok());
  bed.settle();
}

// Charging: a warm cached read is exactly one charged copy — the
// user-buffer crossing — and zero below-boundary bytes.
TEST(ZerocopyCharging, WarmReadChargesExactlyTheBoundary) {
  Testbed bed(Protocol::kNfsV3);
  constexpr std::uint32_t kBytes = 8 * 1024;

  auto fd = bed.vfs().creat("/charge", 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::uint8_t> data(kBytes, 0x44);
  ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
  ASSERT_TRUE(bed.vfs().fsync(*fd).ok());
  std::vector<std::uint8_t> rd(kBytes);
  ASSERT_TRUE(bed.vfs().read(*fd, 0, rd).ok());  // warm the caches

  auto& pool = BufferPool::instance();
  const BufferPool::CopyStats before = pool.copy_stats();
  ASSERT_TRUE(bed.vfs().read(*fd, 0, rd).ok());
  const BufferPool::CopyStats after = pool.copy_stats();
  ASSERT_TRUE(bed.vfs().close(*fd).ok());

  EXPECT_EQ(after.bytes_copied - before.bytes_copied, kBytes);
  EXPECT_EQ(after.bytes_read - before.bytes_read, kBytes);
  EXPECT_EQ(after.bytes_written, before.bytes_written);
  // Two pages crossed the boundary: one charged copy per page, nothing
  // below.
  EXPECT_EQ(after.copies - before.copies, kBytes / block::kBlockSize);
}

// The warm steady state at I/O sizes from 4 to 64 KB: 2,000 reads cycling
// over a cached 256 KB file.  The free list serves every frame the
// loop touches (no fallback to fresh slab capacity), and each page crossing
// the user boundary is one charged copy, with no bytes copied below it.
class WarmReadSteadyState
    : public ::testing::TestWithParam<std::tuple<Protocol, std::uint32_t>> {};

TEST_P(WarmReadSteadyState, CopiesOnlyTheBoundaryAndAllocatesNothing) {
  const Protocol proto = std::get<0>(GetParam());
  const std::uint32_t io_bytes = std::get<1>(GetParam()) * 1024;
  constexpr std::uint32_t kFileBytes = 256 * 1024;
  constexpr std::uint64_t kReads = 2000;
  Testbed bed(proto);

  auto fd = bed.vfs().creat("/warm", 0644);
  ASSERT_TRUE(fd.ok());
  const std::vector<std::uint8_t> data(kFileBytes, 0x6b);
  ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
  ASSERT_TRUE(bed.vfs().fsync(*fd).ok());
  std::vector<std::uint8_t> rd(io_bytes);
  for (std::uint64_t off = 0; off < kFileBytes; off += io_bytes) {
    ASSERT_TRUE(bed.vfs().read(*fd, off, rd).ok());  // fault in every layer
  }

  auto& pool = BufferPool::instance();
  const std::uint64_t fallbacks_before = pool.alloc_fallbacks();
  const BufferPool::CopyStats before = pool.copy_stats();
  for (std::uint64_t i = 0; i < kReads; ++i) {
    const std::uint64_t off = (i % (kFileBytes / io_bytes)) * io_bytes;
    ASSERT_TRUE(bed.vfs().read(*fd, off, rd).ok());
  }
  const BufferPool::CopyStats after = pool.copy_stats();
  EXPECT_EQ(pool.alloc_fallbacks() - fallbacks_before, 0u);
  ASSERT_TRUE(bed.vfs().close(*fd).ok());

  EXPECT_EQ(after.bytes_read - before.bytes_read, kReads * io_bytes);
  EXPECT_EQ(after.bytes_copied - before.bytes_copied,
            after.bytes_read - before.bytes_read);
  EXPECT_EQ(after.bytes_written, before.bytes_written);
  EXPECT_EQ(after.copies - before.copies,
            kReads * (io_bytes / block::kBlockSize));
}

INSTANTIATE_TEST_SUITE_P(
    AllSizes, WarmReadSteadyState,
    ::testing::Combine(::testing::Values(Protocol::kIscsi, Protocol::kNfsV3),
                       ::testing::Values(4u, 8u, 16u, 32u, 64u)),
    [](const auto& info) {
      const Protocol proto = std::get<0>(info.param);
      return std::string(proto == Protocol::kIscsi ? "Iscsi" : "NfsV3") +
             "_" + std::to_string(std::get<1>(info.param)) + "K";
    });

// NFSv4 directory delegation buffers a new file's data on the client and
// ships it after the deferred create reaches the server.  The ship sends
// slices of the buffered pages and re-keys them under the real handle by
// sharing, so the user write is the only charged copy end to end.
TEST(ZerocopyCharging, DelegatedShipChargesOnlyTheUserWrite) {
  Testbed bed(Protocol::kNfsV4Delegation);
  constexpr std::uint32_t kBytes = 5 * block::kBlockSize + 100;  // 20,580

  auto& pool = BufferPool::instance();
  const BufferPool::CopyStats before = pool.copy_stats();
  auto fd = bed.vfs().creat("/deleg", 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::uint8_t> data(kBytes);
  for (std::uint32_t i = 0; i < kBytes; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
  ASSERT_TRUE(bed.vfs().close(*fd).ok());
  bed.settle();  // the delegation flush ships the create and the data
  const BufferPool::CopyStats after = pool.copy_stats();

  EXPECT_EQ(after.bytes_written - before.bytes_written, kBytes);
  EXPECT_EQ(after.bytes_copied - before.bytes_copied, kBytes);
  EXPECT_EQ(after.bytes_read, before.bytes_read);
  // One copy_in per page the write touched (six pages), nothing below.
  EXPECT_EQ(after.copies - before.copies, 6u);

  // The shipped file reads back intact, from the client cache and from
  // the server after the client drops its caches.
  auto rfd = bed.vfs().open("/deleg");
  ASSERT_TRUE(rfd.ok());
  std::vector<std::uint8_t> rd(kBytes);
  auto got = bed.vfs().read(*rfd, 0, rd);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, kBytes);
  EXPECT_EQ(rd, data);
  ASSERT_TRUE(bed.vfs().close(*rfd).ok());

  bed.nfs_client().invalidate_caches();
  rfd = bed.vfs().open("/deleg");
  ASSERT_TRUE(rfd.ok());
  std::fill(rd.begin(), rd.end(), 0);
  got = bed.vfs().read(*rfd, 0, rd);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, kBytes);
  EXPECT_EQ(rd, data);
  ASSERT_TRUE(bed.vfs().close(*rfd).ok());
}

}  // namespace
}  // namespace netstore
