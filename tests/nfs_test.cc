// NFS client/server behaviour tests: message counting per operation,
// cache consistency checks, the bounded write pool, close-to-open
// semantics, and per-version differences the paper measures.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "block/block.h"
#include "block/local_device.h"
#include "block/raid5.h"
#include "core/buffer_pool.h"
#include "fs/ext3.h"
#include "nfs/client.h"
#include "nfs/server.h"
#include "rpc/rpc.h"

namespace netstore::nfs {
namespace {

class NfsRig {
 public:
  explicit NfsRig(ClientConfig ccfg = {}) {
    block::Raid5Config rcfg;
    rcfg.disk.block_count = 65536;
    raid_ = std::make_unique<block::Raid5Array>(rcfg);
    disk_ = std::make_unique<block::LocalBlockDevice>(env_, *raid_);
    fs::Ext3Fs::mkfs(*disk_, {});
    fs_ = std::make_unique<fs::Ext3Fs>(env_, *disk_, fs::Ext3Params{});
    fs_->mount();
    server_ = std::make_unique<NfsServer>(env_, *fs_, ServerConfig{});
    link_ = std::make_unique<net::Link>(env_, net::LinkConfig{});
    rpc_ = std::make_unique<rpc::RpcTransport>(env_, *link_, rpc::RpcConfig{});
    client_ = std::make_unique<NfsClient>(env_, *rpc_, *server_, ccfg);
    client_->mount();
  }

  std::uint64_t calls() const { return rpc_->stats().calls.value(); }
  void reset() { rpc_->reset_stats(); }

  sim::Env env_;
  std::unique_ptr<block::Raid5Array> raid_;
  std::unique_ptr<block::LocalBlockDevice> disk_;
  std::unique_ptr<fs::Ext3Fs> fs_;
  std::unique_ptr<NfsServer> server_;
  std::unique_ptr<net::Link> link_;
  std::unique_ptr<rpc::RpcTransport> rpc_;
  std::unique_ptr<NfsClient> client_;
};

TEST(NfsClientTest, ColdMkdirIsTwoMessagesV3) {
  NfsRig rig;
  rig.reset();
  ASSERT_TRUE(rig.client_->mkdir("/d", 0755).ok());
  EXPECT_EQ(rig.calls(), 2u);  // negative LOOKUP + MKDIR (Table 2)
}

TEST(NfsClientTest, ColdChdirIsOneLookup) {
  NfsRig rig;
  ASSERT_TRUE(rig.client_->mkdir("/d", 0755).ok());
  rig.client_->unmount();  // cold client: remount re-primes the root
  rig.client_->mount();
  rig.reset();
  ASSERT_TRUE(rig.client_->chdir("/d").ok());
  EXPECT_EQ(rig.calls(), 1u);
}

TEST(NfsClientTest, WarmChdirRevalidates) {
  NfsRig rig;
  ASSERT_TRUE(rig.client_->mkdir("/d", 0755).ok());
  ASSERT_TRUE(rig.client_->chdir("/d").ok());
  rig.reset();
  ASSERT_TRUE(rig.client_->chdir("/d").ok());
  EXPECT_EQ(rig.calls(), 1u);  // one consistency-check GETATTR (Table 3)
}

TEST(NfsClientTest, LookupsPerPathComponent) {
  NfsRig rig;
  ASSERT_TRUE(rig.client_->mkdir("/a", 0755).ok());
  ASSERT_TRUE(rig.client_->mkdir("/a/b", 0755).ok());
  ASSERT_TRUE(rig.client_->mkdir("/a/b/c", 0755).ok());
  rig.client_->unmount();
  rig.client_->mount();
  rig.reset();
  ASSERT_TRUE(rig.client_->chdir("/a/b/c").ok());
  EXPECT_EQ(rig.calls(), 3u);  // one LOOKUP per component
}

TEST(NfsClientTest, StaleComponentsRevalidateAfterWindow) {
  NfsRig rig;
  ASSERT_TRUE(rig.client_->mkdir("/a", 0755).ok());
  auto fh = rig.client_->creat("/a/f", 0644);
  ASSERT_TRUE(fh.ok());
  (void)rig.client_->stat("/a/f");
  rig.env_.advance(sim::seconds(5));  // attributes go stale (> 3 s)
  rig.reset();
  (void)rig.client_->stat("/a/f");
  // /a revalidates, plus stat's revalidate + fill GETATTRs.
  EXPECT_GE(rig.calls(), 3u);
}

TEST(NfsClientTest, FreshComponentsNeedNoRevalidation) {
  NfsRig rig;
  ASSERT_TRUE(rig.client_->mkdir("/a", 0755).ok());
  ASSERT_TRUE(rig.client_->creat("/a/f", 0644).ok());
  (void)rig.client_->stat("/a/f");
  rig.env_.advance(sim::seconds(1));  // inside the window
  rig.reset();
  (void)rig.client_->stat("/a/f");
  EXPECT_EQ(rig.calls(), 2u);  // stat's own revalidate + fill only
}

TEST(NfsClientTest, MetadataMutationsAreSynchronousRpcs) {
  NfsRig rig;
  rig.reset();
  const sim::Time t0 = rig.env_.now();
  ASSERT_TRUE(rig.client_->mkdir("/sync", 0755).ok());
  // The call blocked for at least a round trip.
  EXPECT_GE(rig.env_.now() - t0, rig.link_->rtt());
}

TEST(NfsClientTest, V2WritesSynchronous) {
  ClientConfig cfg;
  cfg.version = Version::kV2;
  NfsRig rig(cfg);
  auto fh = rig.client_->creat("/f", 0644);
  ASSERT_TRUE(fh.ok());
  std::vector<std::uint8_t> data(4096, 0xAA);
  const sim::Time t0 = rig.env_.now();
  ASSERT_TRUE(rig.client_->write(*fh, 0, data).ok());
  EXPECT_GE(rig.env_.now() - t0, rig.link_->rtt());  // blocked on WRITE
}

TEST(NfsClientTest, V3WritesAsyncUntilPoolFills) {
  ClientConfig cfg;
  cfg.write_pool_slots = 8;
  NfsRig rig(cfg);
  auto fh = rig.client_->creat("/f", 0644);
  ASSERT_TRUE(fh.ok());
  std::vector<std::uint8_t> data(4096, 0xBB);
  const sim::Time t0 = rig.env_.now();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.client_->write(*fh, i * 4096ull, data).ok());
  }
  const sim::Duration async_cost = rig.env_.now() - t0;
  EXPECT_LT(async_cost, rig.link_->rtt());  // all fit in the pool

  // Past the pool the client degenerates to pseudo-synchronous behaviour
  // (the paper's Table 4 / Figure 6 explanation).
  const sim::Time t1 = rig.env_.now();
  for (int i = 8; i < 64; ++i) {
    ASSERT_TRUE(rig.client_->write(*fh, i * 4096ull, data).ok());
  }
  EXPECT_GT(rig.env_.now() - t1, async_cost);
}

TEST(NfsClientTest, CloseFlushesAndCommits) {
  NfsRig rig;
  auto fh = rig.client_->creat("/f", 0644);
  ASSERT_TRUE(fh.ok());
  std::vector<std::uint8_t> data(4096, 0xCC);
  ASSERT_TRUE(rig.client_->write(*fh, 0, data).ok());
  rig.reset();
  ASSERT_TRUE(rig.client_->close(*fh).ok());
  EXPECT_EQ(rig.calls(), 1u);  // COMMIT
}

TEST(NfsClientTest, ReadYourWritesThroughClientCache) {
  NfsRig rig;
  auto fh = rig.client_->creat("/f", 0644);
  ASSERT_TRUE(fh.ok());
  std::vector<std::uint8_t> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 3);
  }
  ASSERT_TRUE(rig.client_->write(*fh, 0, data).ok());
  std::vector<std::uint8_t> out(data.size());
  auto n = rig.client_->read(*fh, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(data, out);
}

TEST(NfsClientTest, WarmReadServedFromCacheInsideWindow) {
  NfsRig rig;
  auto fh = rig.client_->creat("/f", 0644);
  std::vector<std::uint8_t> data(8192, 0xDD);
  ASSERT_TRUE(rig.client_->write(*fh, 0, data).ok());
  ASSERT_TRUE(rig.client_->close(*fh).ok());
  std::vector<std::uint8_t> out(8192);
  ASSERT_TRUE(rig.client_->read(*fh, 0, out).ok());  // populate cache
  rig.reset();
  ASSERT_TRUE(rig.client_->read(*fh, 0, out).ok());
  EXPECT_EQ(rig.calls(), 0u);  // pure cache hit inside the window
}

// The zero-copy read path (DESIGN.md §17): a cached full-block read
// charges exactly one copy per page — the user-buffer boundary — where
// the pre-plane path copied twice (server page cache -> reply staging ->
// client page, then client page -> user buffer).
TEST(NfsClientTest, CachedFullBlockReadIsSingleCopy) {
  NfsRig rig;
  auto fh = rig.client_->creat("/f", 0644);
  ASSERT_TRUE(fh.ok());
  constexpr std::uint32_t kBytes = 8192;
  std::vector<std::uint8_t> data(kBytes, 0xC5);
  ASSERT_TRUE(rig.client_->write(*fh, 0, data).ok());
  ASSERT_TRUE(rig.client_->close(*fh).ok());

  std::vector<std::uint8_t> out(kBytes);
  ASSERT_TRUE(rig.client_->read(*fh, 0, out).ok());  // populate the cache

  auto& pool = core::BufferPool::instance();
  const core::BufferPool::CopyStats before = pool.copy_stats();
  ASSERT_TRUE(rig.client_->read(*fh, 0, out).ok());
  const core::BufferPool::CopyStats after = pool.copy_stats();
  EXPECT_EQ(out, data);
  EXPECT_EQ(after.bytes_copied - before.bytes_copied, kBytes);
  EXPECT_EQ(after.bytes_read - before.bytes_read, kBytes);
  EXPECT_EQ(after.copies - before.copies, kBytes / block::kBlockSize);
}

// The client's file pages live in a bounded fs::PageCache: past its
// capacity the coldest pages go, and only those cost a READ again.
TEST(NfsClientTest, EvictedPageCostsOneRead) {
  ClientConfig small;
  small.page_cache_capacity = 4;
  NfsRig rig(small);
  auto created = rig.client_->creat("/f", 0644);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(rig.client_->close(*created).ok());
  auto fh = rig.client_->open("/f");  // starts the attribute window
  ASSERT_TRUE(fh.ok());
  std::vector<std::uint8_t> data(6 * block::kBlockSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i / block::kBlockSize + 1);
  }
  ASSERT_TRUE(rig.client_->write(*fh, 0, data).ok());  // pages 0-5

  std::vector<std::uint8_t> out(block::kBlockSize);
  rig.reset();
  ASSERT_TRUE(rig.client_->read(*fh, 5 * block::kBlockSize, out).ok());
  EXPECT_EQ(rig.calls(), 0u);  // resident, attributes inside the window
  EXPECT_EQ(out[0], 6);
  ASSERT_TRUE(rig.client_->read(*fh, 0, out).ok());
  EXPECT_EQ(rig.calls(), 1u);  // page 0 was evicted: one READ
  EXPECT_EQ(out[0], 1);
}

TEST(NfsClientTest, V4UsesAccessAndOpenStateMachinery) {
  ClientConfig v4;
  v4.version = Version::kV4;
  NfsRig rig(v4);
  ASSERT_TRUE(rig.client_->mkdir("/d", 0755).ok());
  rig.client_->invalidate_caches();
  rig.reset();
  ASSERT_TRUE(rig.client_->chdir("/d").ok());
  // ACCESS(root) + LOOKUP + ACCESS(dir) — Table 2's v4 chatter.
  EXPECT_EQ(rig.calls(), 3u);
}

TEST(NfsClientTest, V4ColdCreatStorm) {
  ClientConfig v4;
  v4.version = Version::kV4;
  NfsRig rig(v4);
  rig.reset();
  auto fh = rig.client_->creat("/f", 0644);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(rig.client_->close(*fh).ok());
  EXPECT_EQ(rig.calls(), 10u);  // Table 2: creat = 10 for v4
}

TEST(NfsClientTest, StaleHandleAfterServerSideRemoval) {
  NfsRig rig;
  auto fh = rig.client_->creat("/f", 0644);
  ASSERT_TRUE(fh.ok());
  // The file vanishes behind the client's back (another client would do
  // this via the shared namespace).
  ASSERT_TRUE(rig.fs_->unlink(fs::kRootIno, "f").ok());
  rig.env_.advance(sim::seconds(5));  // attr cache expires
  std::vector<std::uint8_t> out(100);
  auto r = rig.client_->read(*fh, 0, out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), fs::Err::kStale);
}

TEST(NfsServerTest, MetadataDurableBeforeReply) {
  NfsRig rig;
  ASSERT_TRUE(rig.client_->mkdir("/durable", 0755).ok());
  // Server crash via cache drop: the mkdir must survive on disk (it was
  // journal-committed synchronously before the RPC reply).
  rig.fs_->crash();
  fs::Ext3Fs fresh(rig.env_, *rig.disk_, fs::Ext3Params{});
  fresh.mount();
  EXPECT_TRUE(fresh.resolve("/durable").ok());
}

}  // namespace
}  // namespace netstore::nfs
