// Journal tests: commit points, update aggregation, crash recovery
// (replay), and the persistence trade-off the paper describes in §2.3.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "block/mem_device.h"
#include "fs/ext3.h"
#include "sim/rng.h"

namespace netstore::fs {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  JournalTest() : dev_(256 * 1024) {
    MkfsOptions opts;
    opts.journal_blocks = 256;  // small journal: exercises wrap/checkpoint
    Ext3Fs::mkfs(dev_, opts);
    remount_fresh();
  }

  void remount_fresh() {
    fs_ = std::make_unique<Ext3Fs>(env_, dev_, Ext3Params{});
    fs_->mount();
  }

  sim::Env env_;
  block::MemBlockDevice dev_;
  std::unique_ptr<Ext3Fs> fs_;
};

TEST_F(JournalTest, MetadataUpdatesJoinRunningTransaction) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "d", 0755).ok());
  EXPECT_TRUE(fs_->journal().transaction_open());
  EXPECT_EQ(fs_->journal().stats().commits.value(), 0u);
}

TEST_F(JournalTest, CommitFiresAtCommitInterval) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "d", 0755).ok());
  env_.advance(sim::seconds(6));  // past the 5 s commit interval
  EXPECT_EQ(fs_->journal().stats().commits.value(), 1u);
  EXPECT_FALSE(fs_->journal().transaction_open());
}

TEST_F(JournalTest, UpdateAggregationLogsBlockOnce) {
  // Many updates touching the same metadata blocks within one window are
  // logged once each (the paper's §4.2 insight).
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fs_->create(kRootIno, "f" + std::to_string(i), 0644).ok());
  }
  const std::size_t txn_blocks = fs_->journal().running_size();
  // 64 creates dirty: root dir block(s), inode bitmap, 2-3 inode table
  // blocks, GDT — far fewer than 64 distinct blocks.
  EXPECT_LT(txn_blocks, 16u);
  env_.advance(sim::seconds(6));
  EXPECT_EQ(fs_->journal().stats().blocks_logged.value(), txn_blocks);
}

TEST_F(JournalTest, CommittedMetadataSurvivesCrash) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "survives", 0755).ok());
  fs_->journal().commit(true);
  fs_->crash();  // caches dropped, nothing checkpointed

  remount_fresh();  // replays the journal
  EXPECT_TRUE(fs_->resolve("/survives").ok());
}

TEST_F(JournalTest, UncommittedMetadataLostOnCrash) {
  // The §2.3 trade-off: asynchronous meta-data updates risk loss.
  ASSERT_TRUE(fs_->mkdir(kRootIno, "doomed", 0755).ok());
  fs_->crash();  // before any commit point

  remount_fresh();
  EXPECT_EQ(fs_->resolve("/doomed").error(), Err::kNoEnt);
}

TEST_F(JournalTest, MultipleTransactionsReplayInOrder) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "a", 0755).ok());
  fs_->journal().commit(true);
  ASSERT_TRUE(fs_->mkdir(kRootIno, "b", 0755).ok());
  fs_->journal().commit(true);
  ASSERT_TRUE(fs_->rmdir(kRootIno, "a").ok());
  fs_->journal().commit(true);
  ASSERT_TRUE(fs_->mkdir(kRootIno, "c", 0755).ok());  // uncommitted
  fs_->crash();

  remount_fresh();
  EXPECT_EQ(fs_->resolve("/a").error(), Err::kNoEnt);  // rmdir committed
  EXPECT_TRUE(fs_->resolve("/b").ok());
  EXPECT_EQ(fs_->resolve("/c").error(), Err::kNoEnt);  // lost
}

TEST_F(JournalTest, JournalWrapsAndCheckpoints) {
  // More metadata churn than the tiny journal can hold: forces
  // checkpointing and wrap-around, repeatedly.
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(fs_->create(kRootIno,
                              "r" + std::to_string(round) + "_" +
                                  std::to_string(i),
                              0644)
                      .ok());
    }
    fs_->journal().commit(true);
  }
  EXPECT_GT(fs_->journal().stats().checkpoint_writes.value(), 0u);
  // Everything still resolvable after remount (checkpoints were correct).
  fs_->unmount();
  remount_fresh();
  EXPECT_TRUE(fs_->resolve("/r59_39").ok());
  EXPECT_TRUE(fs_->resolve("/r0_0").ok());
}

TEST_F(JournalTest, UncommittedDataLostButEarlierCommitIntact) {
  auto f = fs_->create(kRootIno, "f", 0644);
  ASSERT_TRUE(f.ok());
  std::vector<std::uint8_t> data(4096, 0x77);
  ASSERT_TRUE(fs_->write(*f, 0, data).ok());
  ASSERT_TRUE(fs_->fsync(*f).ok());  // data + metadata durable

  std::vector<std::uint8_t> more(4096, 0x88);
  ASSERT_TRUE(fs_->write(*f, 4096, more).ok());  // only in page cache
  fs_->crash();

  remount_fresh();
  auto r = fs_->resolve("/f");
  ASSERT_TRUE(r.ok());
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(fs_->read(*r, 0, out).ok());
  EXPECT_EQ(out, data);  // fsynced data intact
  // The second write's size update was never committed.
  EXPECT_EQ(fs_->getattr(*r)->size, 4096u);
}

TEST_F(JournalTest, CleanUnmountNeedsNoReplay) {
  ASSERT_TRUE(fs_->mkdir(kRootIno, "d", 0755).ok());
  fs_->unmount();
  // A clean superblock means mount performs no replay.
  SuperBlock sb = fs_->superblock();
  EXPECT_EQ(sb.clean, 1);
  remount_fresh();
  EXPECT_TRUE(fs_->resolve("/d").ok());
}

// A MemBlockDevice that keeps every frame the file system writes, with a
// copy of its bytes at hand-over.  Commits and checkpoints share the
// bcache's frame with the device instead of copying it, so a frame whose
// bytes later differ from the copy was written through a reference held
// across the share: the journal or the home block then holds bytes that
// were never written to it.
class FrameKeepingDevice final : public block::BlockDevice {
 public:
  explicit FrameKeepingDevice(std::uint64_t blocks) : mem_(blocks) {}

  [[nodiscard]] std::uint64_t block_count() const override {
    return mem_.block_count();
  }
  void read(block::Lba lba, std::uint32_t nblocks,
            std::vector<core::BufRef>& out) override {
    mem_.read(lba, nblocks, out);
  }
  void write(block::Lba lba, std::span<const core::BufRef> blocks,
             block::WriteMode mode) override {
    for (const core::BufRef& b : blocks) kept_.push_back({b, b.block()});
    mem_.write(lba, blocks, mode);
  }
  void flush() override { mem_.flush(); }

  /// Frames whose bytes changed after the device took them.
  [[nodiscard]] std::size_t changed() const {
    std::size_t n = 0;
    for (const auto& [frame, bytes] : kept_) n += frame.block() != bytes;
    return n;
  }

 private:
  block::MemBlockDevice mem_;
  std::vector<std::pair<core::BufRef, block::BlockBuf>> kept_;
};

// Random churn on one file whose blocks sit in the direct, indirect and
// double-indirect ranges, cut back to random points in between, with
// empty creates and clock advances mixed in.  A journal of a few blocks
// commits (and checkpoints) every few metadata updates, so commits land
// inside the allocations that extend an indirect block and inside the
// frees that clear a double-indirect entry.
TEST(SharedMetadataFrames, StayAsWrittenOnTheDevice) {
  const std::uint64_t dstart = kDirectBlocks + kPtrsPerBlock;
  const std::uint64_t l2_end = dstart + kPtrsPerBlock;
  // Block indices on either side of each mapping boundary.
  const std::vector<std::uint64_t> at = {
      0,          kDirectBlocks - 1, kDirectBlocks, kDirectBlocks + 1,
      20,         dstart - 1,        dstart,        dstart + 1,
      dstart + 5, l2_end - 1,        l2_end,        l2_end + 1};
  const std::vector<std::uint8_t> payload(block::kBlockSize, 0x5a);
  for (std::uint32_t journal = 6; journal <= 16; ++journal) {
    SCOPED_TRACE("journal_blocks " + std::to_string(journal));
    sim::Env env;
    sim::Rng rng(journal);
    FrameKeepingDevice dev(2 * kBlocksPerGroup);
    Ext3Fs::mkfs(dev, MkfsOptions{.inodes_per_group = 256,
                                  .journal_blocks = journal});
    Ext3Fs fs(env, dev, Ext3Params{});
    fs.mount();
    auto f = fs.create(kRootIno, "f", 0644);
    ASSERT_TRUE(f.ok());
    int spare = 0;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t pos = at[rng.uniform(at.size())] * block::kBlockSize;
      switch (rng.uniform(4)) {
        case 0:
          ASSERT_TRUE(fs.write(*f, pos, payload).ok());
          break;
        case 1: {
          SetAttr cut;
          cut.size = static_cast<std::int64_t>(pos);
          ASSERT_TRUE(fs.setattr(*f, cut).ok());
          break;
        }
        case 2:
          ASSERT_TRUE(
              fs.create(kRootIno, "e" + std::to_string(spare++), 0644).ok());
          break;
        default:
          env.advance(sim::milliseconds(
              static_cast<std::int64_t>(rng.uniform(3000))));
      }
    }
    fs.unmount();
    EXPECT_EQ(dev.changed(), 0u);
  }
}

}  // namespace
}  // namespace netstore::fs
