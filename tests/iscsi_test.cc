// iSCSI initiator/target tests: session lifecycle, exchange counting,
// queue-depth back-pressure, asynchronous writes, prefetch.
#include <gtest/gtest.h>

#include <vector>

#include "block/raid5.h"
#include "block/timed_cache.h"
#include "iscsi/initiator.h"
#include "iscsi/target.h"
#include "net/link.h"

namespace netstore::iscsi {
namespace {

class IscsiTest : public ::testing::Test {
 protected:
  IscsiTest()
      : link_(env_, net::LinkConfig{}),
        raid_([] {
          block::Raid5Config cfg;
          cfg.disk.block_count = 16384;
          return cfg;
        }()),
        cache_(raid_, 4096, 2048),
        target_(cache_, raid_.block_count()),
        initiator_(env_, link_, target_, SessionParams{}) {
    initiator_.login();
  }

  // `n` pool frames of a byte pattern: the block API moves one frame per
  // block.
  std::vector<core::BufRef> blockdata(std::uint32_t n, std::uint8_t seed) {
    std::vector<core::BufRef> v;
    for (std::uint32_t b = 0; b < n; ++b) {
      core::BufRef f = core::BufferPool::instance().alloc();
      for (std::uint32_t i = 0; i < block::kBlockSize; ++i) {
        f.mutable_data()[i] =
            static_cast<std::uint8_t>(seed + b * block::kBlockSize + i);
      }
      v.push_back(std::move(f));
    }
    return v;
  }

  // The bytes behind a run of frames, for comparing payloads.
  static std::vector<std::uint8_t> bytes(const std::vector<core::BufRef>& v) {
    std::vector<std::uint8_t> out;
    for (const core::BufRef& f : v) {
      out.insert(out.end(), f.block().begin(), f.block().end());
    }
    return out;
  }

  sim::Env env_;
  net::Link link_;
  block::Raid5Array raid_;
  block::TimedCache cache_;
  Target target_;
  Initiator initiator_;
};

TEST_F(IscsiTest, LoginEstablishesSession) {
  EXPECT_EQ(initiator_.state(), SessionState::kLoggedIn);
  EXPECT_EQ(initiator_.exchanges(), 1u);  // the login itself
}

TEST_F(IscsiTest, WriteReadRoundTrip) {
  const auto data = blockdata(4, 1);
  initiator_.write(100, data, block::WriteMode::kSync);
  std::vector<core::BufRef> out;
  initiator_.read(100, 4, out);
  EXPECT_EQ(bytes(data), bytes(out));
}

TEST_F(IscsiTest, OneExchangePerCommand) {
  initiator_.reset_stats();
  const auto data = blockdata(1, 2);
  initiator_.write(0, data, block::WriteMode::kSync);  // 1 WRITE
  std::vector<core::BufRef> out;
  initiator_.read(0, 1, out);                          // 1 READ
  EXPECT_EQ(initiator_.exchanges(), 2u);
}

TEST_F(IscsiTest, LargeTransfersSplitAtMaxBurst) {
  initiator_.reset_stats();
  // 1 MB write with a 256 KB burst limit: 4 WRITE commands.
  const auto data = blockdata(256, 3);
  initiator_.write(0, data, block::WriteMode::kSync);
  EXPECT_EQ(initiator_.exchanges(), 4u);
  EXPECT_EQ(initiator_.write_commands(), 4u);
}

TEST_F(IscsiTest, AsyncWritesDontBlockCaller) {
  const auto data = blockdata(1, 4);
  const sim::Time before = env_.now();
  initiator_.write(7, data, block::WriteMode::kAsync);
  EXPECT_EQ(env_.now(), before);  // returned immediately
  initiator_.flush();
  EXPECT_GT(env_.now(), before);  // flush waited for the response
}

TEST_F(IscsiTest, QueueDepthAppliesBackpressure) {
  SessionParams params;
  params.lun = 1;  // the fixture's session owns LUN 0 exclusively
  params.queue_depth = 4;
  Initiator tight(env_, link_, target_, params);
  tight.login();
  const auto data = blockdata(1, 5);
  const sim::Time before = env_.now();
  for (int i = 0; i < 4; ++i) {
    tight.write(static_cast<block::Lba>(i), data, block::WriteMode::kAsync);
  }
  EXPECT_EQ(env_.now(), before);  // queue not yet full
  for (int i = 4; i < 12; ++i) {
    tight.write(static_cast<block::Lba>(i), data, block::WriteMode::kAsync);
  }
  EXPECT_GT(env_.now(), before);  // had to wait for slots
}

TEST_F(IscsiTest, PrefetchReturnsFutureCompletion) {
  const auto data = blockdata(1, 6);
  initiator_.write(42, data, block::WriteMode::kSync);
  // Restart drops the target cache so the prefetch hits the array.
  target_.restart();
  std::vector<core::BufRef> out;
  auto ready = initiator_.prefetch(42, 1, out);
  ASSERT_TRUE(ready.has_value());
  EXPECT_GT(*ready, env_.now());  // data valid only in the future
  EXPECT_EQ(bytes(data), bytes(out));
}

TEST_F(IscsiTest, PduAccountingOnLink) {
  initiator_.reset_stats();
  link_.reset_stats();
  const auto data = blockdata(2, 7);
  initiator_.write(0, data, block::WriteMode::kSync);
  // Command PDU w/ immediate data (8 KB fits one segment) + response.
  EXPECT_EQ(link_.stats(net::Direction::kClientToServer).messages.value(), 1u);
  EXPECT_EQ(link_.stats(net::Direction::kServerToClient).messages.value(), 1u);
  EXPECT_GT(link_.stats(net::Direction::kClientToServer).bytes.value(),
            2u * block::kBlockSize);  // payload + headers
}

TEST_F(IscsiTest, OutOfRangeReadFails) {
  std::vector<core::BufRef> out;
  EXPECT_THROW(initiator_.read(raid_.block_count() + 10, 1, out),
               std::runtime_error);
}

TEST_F(IscsiTest, TargetCrashLosesCachedWrites) {
  const auto data = blockdata(1, 8);
  initiator_.write(5, data, block::WriteMode::kSync);  // acked from cache
  target_.crash();  // power loss before destage
  std::vector<core::BufRef> out;
  initiator_.read(5, 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].data()[0], 0);  // data gone (never reached the spindles)
}

TEST_F(IscsiTest, TargetRestartPreservesSyncedData) {
  const auto data = blockdata(1, 9);
  initiator_.write(6, data, block::WriteMode::kSync);
  target_.restart();  // orderly: destages first
  std::vector<core::BufRef> out;
  initiator_.read(6, 1, out);
  EXPECT_EQ(bytes(data), bytes(out));
}

}  // namespace
}  // namespace netstore::iscsi
