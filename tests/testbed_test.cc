// Cross-stack invariant tests on the full testbeds: the qualitative
// relationships the paper establishes must hold in the simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "workloads/microbench.h"

namespace netstore {
namespace {

using core::Protocol;
using core::Testbed;
using workloads::Microbench;

TEST(TestbedInvariants, ColdMetaOpsCostMoreOnIscsiThanNfs) {
  // Paper §4.1: "on average, iSCSI incurs a higher network message
  // overhead than NFS" for cold-cache meta-data operations.
  std::uint64_t nfs_total = 0;
  std::uint64_t iscsi_total = 0;
  for (const char* op : {"mkdir", "readdir", "rmdir", "stat"}) {
    {
      Testbed bed(Protocol::kNfsV3);
      Microbench mb(bed);
      nfs_total += mb.cold_op(op, 0);
    }
    {
      Testbed bed(Protocol::kIscsi);
      Microbench mb(bed);
      iscsi_total += mb.cold_op(op, 0);
    }
  }
  EXPECT_GT(iscsi_total, nfs_total);
}

TEST(TestbedInvariants, WarmMetaOpsCostLessOrEqualOnIscsi) {
  // Paper §4.1: warm-cache iSCSI is comparable or lower than NFS.
  for (const char* op : {"chdir", "stat", "access", "open"}) {
    std::uint64_t nfs;
    std::uint64_t iscsi;
    {
      Testbed bed(Protocol::kNfsV3);
      Microbench mb(bed);
      nfs = mb.warm_op(op, 0);
    }
    {
      Testbed bed(Protocol::kIscsi);
      Microbench mb(bed);
      iscsi = mb.warm_op(op, 0);
    }
    EXPECT_LE(iscsi, nfs) << op;
  }
}

TEST(TestbedInvariants, WarmIscsiReadOpsAreFree) {
  // Meta-data reads hit the client-resident file system cache: zero
  // network messages (the core of the paper's argument).
  for (const char* op : {"chdir", "stat", "access"}) {
    Testbed bed(Protocol::kIscsi);
    Microbench mb(bed);
    EXPECT_EQ(mb.warm_op(op, 0), 0u) << op;
  }
}

// The ext3 read-ahead window opens at four pages on a sequential streak,
// but never past fs_readahead_max (bench_ablation's window sweep).
TEST(TestbedInvariants, ReadaheadWindowStaysWithinItsMaximum) {
  const auto pages_read_ahead = [](std::uint32_t max_pages) {
    core::SystemConfig cfg;
    cfg.fs_readahead_max = max_pages;
    Testbed bed(Protocol::kIscsi, cfg);
    vfs::Vfs& v = bed.vfs();
    std::vector<std::uint8_t> buf(16 * 4096, 0x5a);
    auto fd = v.creat("/f", 0644);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(v.write(*fd, 0, buf).ok());
    EXPECT_TRUE(v.close(*fd).ok());
    bed.cold_caches();
    fd = v.open("/f");
    EXPECT_TRUE(fd.ok());
    // Two sequential pages start the streak; the second opens the window.
    std::span<std::uint8_t> page(buf.data(), 4096);
    EXPECT_TRUE(v.read(*fd, 0, page).ok());
    EXPECT_TRUE(v.read(*fd, 4096, page).ok());
    return bed.client_fs().pages().stats().readahead_pages.value();
  };
  EXPECT_EQ(pages_read_ahead(2), 2u);
  EXPECT_EQ(pages_read_ahead(4), 4u);
  EXPECT_EQ(pages_read_ahead(8), 4u);
}

TEST(TestbedInvariants, V4CostsAtLeastV3Cold) {
  // Table 2: v4's access-check chatter makes it the most expensive NFS.
  for (const char* op : {"mkdir", "stat", "creat", "open"}) {
    std::uint64_t v3;
    std::uint64_t v4;
    {
      Testbed bed(Protocol::kNfsV3);
      Microbench mb(bed);
      v3 = mb.cold_op(op, 0);
    }
    {
      Testbed bed(Protocol::kNfsV4);
      Microbench mb(bed);
      v4 = mb.cold_op(op, 0);
    }
    EXPECT_GE(v4, v3) << op;
  }
}

TEST(TestbedInvariants, DepthSlopes) {
  // Figure 4: cold message counts grow ~1/level for v3, ~2/level for v4
  // and iSCSI.
  auto slope = [](Protocol p) {
    std::uint64_t d0;
    std::uint64_t d8;
    {
      Testbed bed(p);
      Microbench mb(bed);
      d0 = mb.cold_op("chdir", 0);
    }
    {
      Testbed bed(p);
      Microbench mb(bed);
      d8 = mb.cold_op("chdir", 8);
    }
    return static_cast<double>(d8 - d0) / 8.0;
  };
  EXPECT_NEAR(slope(Protocol::kNfsV3), 1.0, 0.2);
  EXPECT_NEAR(slope(Protocol::kNfsV4), 2.0, 0.3);
  EXPECT_NEAR(slope(Protocol::kIscsi), 2.0, 0.3);
}

TEST(TestbedInvariants, WarmDepthIsFlatForIscsi) {
  // Figure 4: warm-cache iSCSI counts are independent of depth.
  std::uint64_t d0;
  std::uint64_t d8;
  {
    Testbed bed(Protocol::kIscsi);
    Microbench mb(bed);
    d0 = mb.warm_op("mkdir", 0);
  }
  {
    Testbed bed(Protocol::kIscsi);
    Microbench mb(bed);
    d8 = mb.warm_op("mkdir", 8);
  }
  EXPECT_EQ(d0, d8);
}

TEST(TestbedInvariants, BatchingAmortizesIscsiUpdates) {
  // Figure 3: amortized messages/op fall sharply with batch size.
  double at1;
  double at256;
  {
    Testbed bed(Protocol::kIscsi);
    Microbench mb(bed);
    at1 = mb.batch_op("mkdir", 1);
  }
  {
    Testbed bed(Protocol::kIscsi);
    Microbench mb(bed);
    at256 = mb.batch_op("mkdir", 256);
  }
  EXPECT_LT(at256, at1 / 4);
}

TEST(TestbedInvariants, CpuModelAccumulates) {
  Testbed bed(Protocol::kNfsV3);
  bed.reset_counters();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(bed.vfs().mkdir("/d" + std::to_string(i), 0755).ok());
  }
  EXPECT_GT(bed.server_cpu().total_busy(), 0);
  EXPECT_GT(bed.client_cpu().total_busy(), 0);
  // NFS puts the file system work on the server: its CPU use dominates
  // the client's for meta-data work (Tables 9/10).
  EXPECT_GT(bed.server_cpu().total_busy(), bed.client_cpu().total_busy());
}

TEST(TestbedInvariants, IscsiServerCheaperThanNfsServer) {
  // Tables 9: for the same meta-data work, the iSCSI server burns far
  // less CPU than the NFS server (shorter processing path).
  sim::Duration nfs_busy;
  sim::Duration iscsi_busy;
  {
    Testbed bed(Protocol::kNfsV3);
    bed.reset_counters();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(bed.vfs().creat("/f" + std::to_string(i), 0644).ok());
    }
    bed.settle();
    nfs_busy = bed.server_cpu().total_busy();
  }
  {
    Testbed bed(Protocol::kIscsi);
    bed.reset_counters();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(bed.vfs().creat("/f" + std::to_string(i), 0644).ok());
    }
    bed.settle();
    iscsi_busy = bed.server_cpu().total_busy();
  }
  EXPECT_LT(iscsi_busy, nfs_busy / 2);
}

TEST(TestbedInvariants, InjectedLatencySlowsNfsMetaOps) {
  // File creations in one warm directory: LAN cost is sub-millisecond per
  // op, so WAN latency dominates completely for synchronous NFS updates.
  double lan = 0;
  double wan = 0;
  {
    Testbed bed(Protocol::kNfsV3);
    ASSERT_TRUE(bed.vfs().creat("/prime", 0644).ok());
    const sim::Time t0 = bed.env().now();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(bed.vfs().creat("/f" + std::to_string(i), 0644).ok());
    }
    lan = sim::to_seconds(bed.env().now() - t0);
  }
  {
    Testbed bed(Protocol::kNfsV3);
    ASSERT_TRUE(bed.vfs().creat("/prime", 0644).ok());
    bed.set_injected_rtt(sim::milliseconds(50));
    const sim::Time t0 = bed.env().now();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(bed.vfs().creat("/f" + std::to_string(i), 0644).ok());
    }
    wan = sim::to_seconds(bed.env().now() - t0);
  }
  EXPECT_GT(wan, lan * 10);
}

TEST(TestbedInvariants, IscsiMetaUpdatesShrugOffLatency) {
  // Asynchronous meta-data updates: creations in a warm directory are
  // memory-speed regardless of RTT (the Figure 6(b) effect).
  auto run = [](sim::Duration rtt) {
    Testbed bed(Protocol::kIscsi);
    (void)bed.vfs().creat("/prime", 0644);
    bed.set_injected_rtt(rtt);
    const sim::Time t0 = bed.env().now();
    for (int i = 0; i < 50; ++i) {
      (void)bed.vfs().creat("/f" + std::to_string(i), 0644);
    }
    return sim::to_seconds(bed.env().now() - t0);
  };
  const double lan = run(0);
  const double wan = run(sim::milliseconds(50));
  // Allow a couple of round trips for cold metadata block fetches; the
  // point is that 50 synchronous ops would cost >= 50 RTTs (2.5 s) on
  // NFS, while asynchronous iSCSI stays near its LAN time.
  EXPECT_LT(wan, lan + 0.3);
}

class QuiesceTest : public ::testing::TestWithParam<Protocol> {};

// quiesce() runs every deferred daemon and waits out in-flight writes, so
// it leaves no event pending; a second call then has nothing to wait for
// and must not move the clock.
TEST_P(QuiesceTest, QuiesceLeavesNoPendingWork) {
  Testbed bed(GetParam());
  vfs::Vfs& v = bed.vfs();
  ASSERT_TRUE(v.mkdir("/q", 0755).ok());
  const std::vector<std::uint8_t> data(64 * 1024, 0x3d);
  for (int i = 0; i < 8; ++i) {
    auto fd = v.creat("/q/f" + std::to_string(i), 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(v.write(*fd, 0, data).ok());
    ASSERT_TRUE(v.close(*fd).ok());
  }
  ASSERT_TRUE(v.rename("/q/f0", "/q/moved").ok());
  ASSERT_TRUE(v.unlink("/q/f1").ok());
  ASSERT_GT(bed.env().pending_events(), 0u);  // deferred work is queued

  bed.quiesce();
  EXPECT_EQ(bed.env().pending_events(), 0u);
  const sim::Time settled = bed.env().now();
  bed.quiesce();
  EXPECT_EQ(bed.env().now(), settled);
  EXPECT_EQ(bed.env().pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, QuiesceTest,
    ::testing::Values(Protocol::kNfsV2, Protocol::kNfsV3, Protocol::kNfsV4,
                      Protocol::kNfsV4Consistent, Protocol::kNfsV4Delegation,
                      Protocol::kIscsi),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      switch (info.param) {
        case Protocol::kNfsV2: return std::string("NfsV2");
        case Protocol::kNfsV3: return std::string("NfsV3");
        case Protocol::kNfsV4: return std::string("NfsV4");
        case Protocol::kNfsV4Consistent: return std::string("NfsV4Consistent");
        case Protocol::kNfsV4Delegation: return std::string("NfsV4Delegation");
        case Protocol::kIscsi: return std::string("Iscsi");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace netstore
