// Property tests: the ext3 implementation against a trivially correct
// in-memory reference model, under long randomized operation sequences
// (parameterized across seeds), with periodic remounts and crash+replay,
// and with the runtime invariant audits on (journal ordering, and the
// directory index against the directory blocks).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/mem_device.h"
#include "fs/ext3.h"
#include "sim/rng.h"

namespace netstore::fs {
namespace {

/// Reference model: a map of paths to file contents / directory markers.
struct RefModel {
  struct Node {
    bool is_dir;
    std::vector<std::uint8_t> data;
  };
  std::map<std::string, Node> nodes = {{"", {true, {}}}};

  static std::string parent(const std::string& p) {
    const auto pos = p.rfind('/');
    return p.substr(0, pos);
  }

  bool exists(const std::string& p) const { return nodes.contains(p); }
  bool is_dir(const std::string& p) const {
    auto it = nodes.find(p);
    return it != nodes.end() && it->second.is_dir;
  }
  bool dir_empty(const std::string& p) const {
    const std::string prefix = p + "/";
    for (const auto& [path, n] : nodes) {
      if (path.starts_with(prefix)) return false;
    }
    return true;
  }
};

class FsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsPropertyTest, RandomOpsMatchReferenceModel) {
  sim::Env env;
  block::MemBlockDevice dev(128 * 1024);
  MkfsOptions opts;
  opts.journal_blocks = 512;
  Ext3Fs::mkfs(dev, opts);
  Ext3Params params;
  params.invariant_audits = true;
  auto fsys = std::make_unique<Ext3Fs>(env, dev, params);
  fsys->mount();

  sim::Rng rng(GetParam());
  RefModel ref;
  std::vector<std::string> paths = {""};  // known namespace (root = "")

  auto pick_path = [&] { return paths[rng.uniform(paths.size())]; };
  auto fresh_name = [&](const std::string& dir) {
    return dir + "/n" + std::to_string(rng.uniform(1 << 20));
  };

  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.uniform(8));
    switch (op) {
      case 0: {  // create file
        const std::string dir = pick_path();
        if (!ref.is_dir(dir)) break;
        const std::string p = fresh_name(dir);
        std::string leaf;
        auto parent = fsys->resolve_parent(p, leaf);
        ASSERT_TRUE(parent.ok());
        auto r = fsys->create(*parent, leaf, 0644);
        if (ref.exists(p)) {
          EXPECT_FALSE(r.ok());
        } else {
          ASSERT_TRUE(r.ok()) << p;
          ref.nodes[p] = {false, {}};
          paths.push_back(p);
        }
        break;
      }
      case 1: {  // mkdir
        const std::string dir = pick_path();
        if (!ref.is_dir(dir)) break;
        const std::string p = fresh_name(dir);
        std::string leaf;
        auto parent = fsys->resolve_parent(p, leaf);
        ASSERT_TRUE(parent.ok());
        auto r = fsys->mkdir(*parent, leaf, 0755);
        if (!ref.exists(p)) {
          ASSERT_TRUE(r.ok()) << p;
          ref.nodes[p] = {true, {}};
          paths.push_back(p);
        }
        break;
      }
      case 2: {  // write somewhere in a file
        const std::string p = pick_path();
        if (!ref.exists(p) || ref.is_dir(p)) break;
        auto ino = fsys->resolve(p);
        ASSERT_TRUE(ino.ok());
        const auto off = rng.uniform(20000);
        const auto len = 1 + rng.uniform(9000);
        std::vector<std::uint8_t> data(len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        ASSERT_TRUE(fsys->write(*ino, off, data).ok());
        auto& content = ref.nodes[p].data;
        if (content.size() < off + len) content.resize(off + len, 0);
        std::copy(data.begin(), data.end(), content.begin() + static_cast<long>(off));
        break;
      }
      case 3: {  // read back & compare full contents
        const std::string p = pick_path();
        if (!ref.exists(p) || ref.is_dir(p)) break;
        auto ino = fsys->resolve(p);
        ASSERT_TRUE(ino.ok());
        const auto& expect = ref.nodes[p].data;
        auto attr = fsys->getattr(*ino);
        ASSERT_TRUE(attr.ok());
        ASSERT_EQ(attr->size, expect.size()) << p;
        std::vector<std::uint8_t> out(expect.size());
        if (!expect.empty()) {
          auto n = fsys->read(*ino, 0, out);
          ASSERT_TRUE(n.ok());
          ASSERT_EQ(*n, expect.size());
          ASSERT_EQ(out, expect) << p;
        }
        break;
      }
      case 4: {  // unlink / rmdir
        const std::string p = pick_path();
        if (p.empty() || !ref.exists(p)) break;
        std::string leaf;
        auto parent = fsys->resolve_parent(p, leaf);
        ASSERT_TRUE(parent.ok());
        if (ref.is_dir(p)) {
          auto r = fsys->rmdir(*parent, leaf);
          if (ref.dir_empty(p)) {
            ASSERT_TRUE(r.ok()) << p;
            ref.nodes.erase(p);
          } else {
            EXPECT_EQ(r.error(), Err::kNotEmpty);
          }
        } else {
          ASSERT_TRUE(fsys->unlink(*parent, leaf).ok()) << p;
          ref.nodes.erase(p);
        }
        break;
      }
      case 5: {  // truncate
        const std::string p = pick_path();
        if (!ref.exists(p) || ref.is_dir(p)) break;
        auto ino = fsys->resolve(p);
        ASSERT_TRUE(ino.ok());
        const auto size = rng.uniform(30000);
        SetAttr sa;
        sa.size = static_cast<std::int64_t>(size);
        ASSERT_TRUE(fsys->setattr(*ino, sa).ok());
        ref.nodes[p].data.resize(size, 0);
        break;
      }
      case 6: {  // rename a file to a fresh name
        const std::string p = pick_path();
        if (p.empty() || !ref.exists(p) || ref.is_dir(p)) break;
        const std::string dst_dir = pick_path();
        if (!ref.is_dir(dst_dir)) break;
        const std::string q = fresh_name(dst_dir);
        if (ref.exists(q)) break;
        std::string sleaf;
        std::string dleaf;
        auto sp = fsys->resolve_parent(p, sleaf);
        auto dp = fsys->resolve_parent(q, dleaf);
        ASSERT_TRUE(sp.ok());
        ASSERT_TRUE(dp.ok());
        ASSERT_TRUE(fsys->rename(*sp, sleaf, *dp, dleaf).ok()) << p;
        ref.nodes[q] = ref.nodes[p];
        ref.nodes.erase(p);
        paths.push_back(q);
        break;
      }
      case 7: {  // remount (every so often), clean or by crash + replay
        if (rng.uniform(4) != 0) break;
        if (step % 2 == 0) {
          fsys->unmount();
        } else {
          // Everything is durable after sync, so the model is unchanged;
          // the mount replays the journal.
          fsys->sync();
          fsys->crash();
        }
        fsys->mount();
        break;
      }
      default:
        break;
    }
    // Drop stale names from the candidate pool occasionally.
    if (paths.size() > 400) {
      std::vector<std::string> live;
      for (auto& p : paths) {
        if (ref.exists(p)) live.push_back(p);
      }
      paths = std::move(live);
    }
  }

  // Final global verification: every node in the model resolves with the
  // right type and contents; directory listings match.
  for (const auto& [path, node] : ref.nodes) {
    if (path.empty()) continue;
    auto ino = fsys->resolve(path, false);
    ASSERT_TRUE(ino.ok()) << path;
    auto attr = fsys->getattr(*ino);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->type() == FileType::kDirectory, node.is_dir) << path;
    if (!node.is_dir) {
      ASSERT_EQ(attr->size, node.data.size()) << path;
      std::vector<std::uint8_t> out(node.data.size());
      if (!node.data.empty()) {
        ASSERT_TRUE(fsys->read(*ino, 0, out).ok());
        EXPECT_EQ(out, node.data) << path;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace netstore::fs
