// Failure injection across the stacks: the persistence trade-off of §2.3
// (NFS's synchronous meta-data updates survive a client crash; iSCSI's
// write-back journaling can lose recent updates), degraded RAID, and RPC
// behaviour under loss-like conditions.
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "workloads/large_io.h"

namespace netstore {
namespace {

using core::Protocol;
using core::Testbed;

TEST(FailureTest, NfsMetadataSurvivesClientCrash) {
  // Paper §2.3: "Due to synchronous meta-data updates in NFS, both data
  // and meta-data updates persist across client failure."
  Testbed bed(Protocol::kNfsV3);
  ASSERT_TRUE(bed.vfs().mkdir("/committed", 0755).ok());
  bed.crash_client();
  bed.nfs_client().unmount();
  bed.nfs_client().mount();
  EXPECT_TRUE(bed.vfs().stat("/committed").ok());
}

TEST(FailureTest, IscsiRecentMetadataLostOnClientCrash) {
  // Paper §2.3: "in iSCSI, meta-data updates as well as related data may
  // be lost in case client fails prior to flushing the journal".
  Testbed bed(Protocol::kIscsi);
  ASSERT_TRUE(bed.vfs().mkdir("/doomed", 0755).ok());
  bed.crash_client();  // before the 5 s commit point
  bed.client_fs().mount();  // recovery: journal replay finds nothing
  EXPECT_EQ(bed.vfs().stat("/doomed").error(), fs::Err::kNoEnt);
}

TEST(FailureTest, IscsiCommittedMetadataSurvivesClientCrash) {
  Testbed bed(Protocol::kIscsi);
  ASSERT_TRUE(bed.vfs().mkdir("/aged", 0755).ok());
  bed.settle(sim::seconds(6));  // commit point passes
  bed.client_fs().journal().commit(true);
  bed.crash_client();
  bed.client_fs().mount();
  EXPECT_TRUE(bed.vfs().stat("/aged").ok());
}

TEST(FailureTest, FsyncedDataSurvivesEverywhere) {
  for (Protocol p : {Protocol::kNfsV3, Protocol::kIscsi}) {
    Testbed bed(p);
    auto fd = bed.vfs().creat("/f", 0644);
    ASSERT_TRUE(fd.ok());
    std::vector<std::uint8_t> data(4096, 0x5C);
    ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
    ASSERT_TRUE(bed.vfs().fsync(*fd).ok());
    bed.crash_client();
    if (p == Protocol::kIscsi) {
      bed.client_fs().mount();
    } else {
      bed.nfs_client().unmount();
      bed.nfs_client().mount();
    }
    auto fd2 = bed.vfs().open("/f");
    ASSERT_TRUE(fd2.ok()) << core::to_string(p);
    std::vector<std::uint8_t> out(4096);
    auto n = bed.vfs().read(*fd2, 0, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data) << core::to_string(p);
  }
}

TEST(FailureTest, WorkloadRunsOnDegradedArray) {
  // A RAID-5 member failure is transparent to the file system (slower,
  // but correct), for both stacks.
  for (Protocol p : {Protocol::kIscsi, Protocol::kNfsV3}) {
    Testbed bed(p);
    auto fd = bed.vfs().creat("/f", 0644);
    ASSERT_TRUE(fd.ok());
    std::vector<std::uint8_t> data(64 * 1024);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 11);
    }
    ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
    ASSERT_TRUE(bed.vfs().fsync(*fd).ok());
    bed.cold_caches();  // destage everything, drop caches

    bed.raid().fail_disk(2);  // lose a spindle
    auto fd2 = bed.vfs().open("/f");
    ASSERT_TRUE(fd2.ok()) << core::to_string(p);
    std::vector<std::uint8_t> out(data.size());
    auto n = bed.vfs().read(*fd2, 0, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, data) << core::to_string(p);
  }
}

TEST(FailureTest, RebuildAfterFailureRestoresRedundancy) {
  Testbed bed(Protocol::kIscsi);
  auto fd = bed.vfs().creat("/f", 0644);
  ASSERT_TRUE(fd.ok());
  std::vector<std::uint8_t> data(32 * 1024, 0x21);
  ASSERT_TRUE(bed.vfs().write(*fd, 0, data).ok());
  ASSERT_TRUE(bed.vfs().fsync(*fd).ok());
  bed.cold_caches();

  bed.raid().fail_disk(0);
  bed.raid().rebuild_disk(0);
  // A different spindle can now fail without data loss.
  bed.raid().fail_disk(1);
  auto fd2 = bed.vfs().open("/f");
  ASSERT_TRUE(fd2.ok());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(bed.vfs().read(*fd2, 0, out).ok());
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace netstore
