// Same-seed determinism self-check (acceptance gate for the invariant
// layer): a full mixed workload over a complete testbed must produce a
// bit-identical stats digest on every run.  The whole suite runs with
// invariant_audits on, so event-queue ordering, journal commit-order and
// directory-index audits are exercised across every layer along the way.
//
// The Golden* tests at the end go further: they compare against digests
// committed with the code (inline below, and in tests/golden/),
// so a refactor that must not change simulated behaviour is checked
// against a fixed past run, not only against itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.h"
#include "core/testbed.h"
#include "obs/report.h"
#include "sim/rng.h"

namespace netstore {
namespace {

using core::Protocol;
using core::Testbed;
using core::SystemConfig;

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

SystemConfig audited_config() {
  SystemConfig cfg;
  cfg.invariant_audits = true;
  return cfg;
}

// Runs a mixed meta-data + data workload driven by a seeded Rng and folds
// every observable statistic into one digest string.  Any source of
// nondeterminism anywhere in the stack (hash-order iteration, wall-clock
// reads, uninitialized reads surviving sanitizers) shows up as a digest
// mismatch between two same-seed runs.
void run_digest(Protocol proto, std::uint64_t seed, std::string* out) {
  Testbed bed(proto, audited_config());
  sim::Rng rng(seed);

  constexpr int kFiles = 24;
  constexpr std::uint32_t kIoBytes = 16 * 1024;

  ASSERT_TRUE(bed.vfs().mkdir("/work", 0755).ok()) << "mkdir failed";
  std::uint64_t data_hash = 0xcbf29ce484222325ull;

  std::vector<std::uint8_t> buf(kIoBytes);
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/work/f" + std::to_string(i);
    auto fd = bed.vfs().creat(path, 0644);
    ASSERT_TRUE(fd.ok()) << "creat failed";
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t off = rng.uniform(4) * kIoBytes;
    ASSERT_TRUE(bed.vfs().write(*fd, off, buf).ok()) << "write failed";
    if (rng.chance(0.5)) {
      ASSERT_TRUE(bed.vfs().fsync(*fd).ok()) << "fsync failed";
    }
    ASSERT_TRUE(bed.vfs().close(*fd).ok()) << "close failed";
  }

  // Random renames and deletions keep the directory blocks churning.
  for (int i = 0; i < kFiles / 3; ++i) {
    const auto victim = rng.uniform(kFiles);
    const std::string from = "/work/f" + std::to_string(victim);
    if (rng.chance(0.5)) {
      (void)bed.vfs().rename(from, from + "r");
    } else {
      (void)bed.vfs().unlink(from);
    }
  }

  // Read back the survivors and fold the bytes into the digest.
  auto listing = bed.vfs().readdir("/work");
  ASSERT_TRUE(listing.ok()) << "readdir failed";
  for (const auto& ent : *listing) {
    if (ent.name == "." || ent.name == "..") continue;
    auto fd = bed.vfs().open("/work/" + ent.name);
    ASSERT_TRUE(fd.ok()) << "open failed";
    std::vector<std::uint8_t> rd(2 * kIoBytes);
    auto got = bed.vfs().read(*fd, 0, rd);
    ASSERT_TRUE(got.ok()) << "read failed";
    data_hash = fnv1a(data_hash, std::span(rd.data(), *got));
    ASSERT_TRUE(bed.vfs().close(*fd).ok()) << "close failed";
  }

  // Let deferred activity (journal commits, write-back, delegation
  // flushes) run so its traffic lands in the counters too.
  bed.settle();

  const core::StatsSnapshot snap = bed.snapshot();
  std::ostringstream digest;
  digest << to_string(proto) << " seed=" << seed
         << " msgs=" << snap.messages << " raw=" << snap.raw_messages
         << " bytes=" << snap.bytes << " rexmit=" << snap.retransmissions
         << " now=" << bed.env().now()
         << " srv_cpu=" << bed.server_cpu().total_busy()
         << " cli_cpu=" << bed.client_cpu().total_busy()
         << " data=" << std::hex << data_hash;
  *out = digest.str();
}

std::string digest_of(Protocol proto, std::uint64_t seed) {
  std::string d;
  run_digest(proto, seed, &d);
  return d;
}

class SameSeedDeterminism : public ::testing::TestWithParam<Protocol> {};

TEST_P(SameSeedDeterminism, TwoRunsProduceIdenticalDigests) {
  const std::string first = digest_of(GetParam(), 0xfeedfaceull);
  const std::string second = digest_of(GetParam(), 0xfeedfaceull);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("msgs="), std::string::npos);
}

// Same-seed determinism must extend to the exported artifacts: the full
// obs::Report rendering — every registry metric, every trace-span sampler
// summary — must be byte-identical across two runs, because EXPERIMENTS.md
// and the CI bench-smoke artifacts are diffed at the byte level.
std::string report_json_of(Protocol proto, std::uint64_t seed) {
  Testbed bed(proto, audited_config());
  sim::Rng rng(seed);
  std::vector<std::uint8_t> buf(8 * 1024);
  for (int i = 0; i < 12; ++i) {
    auto fd = bed.vfs().creat("/r" + std::to_string(i), 0644);
    if (!fd.ok()) return {};
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    (void)bed.vfs().write(*fd, rng.uniform(4) * buf.size(), buf);
    if (rng.chance(0.5)) (void)bed.vfs().fsync(*fd);
    (void)bed.vfs().close(*fd);
    std::vector<std::uint8_t> rd(buf.size());
    auto rfd = bed.vfs().open("/r" + std::to_string(rng.uniform(i + 1)));
    if (rfd.ok()) {
      (void)bed.vfs().read(*rfd, 0, rd);
      (void)bed.vfs().close(*rfd);
    }
  }
  bed.settle();

  obs::Report report("determinism_test", "same-seed export gate");
  report.add_snapshot("final", bed.metrics().snapshot());
  report.add_trace_summary("final", bed.tracer());
  return report.json();
}

TEST_P(SameSeedDeterminism, ExportedReportJsonIsBitIdentical) {
  const std::string first = report_json_of(GetParam(), 0x5eedull);
  const std::string second = report_json_of(GetParam(), 0x5eedull);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"format\":\"netstore-report-v1\""),
            std::string::npos);
  EXPECT_NE(first.find("trace.component.media_us"), std::string::npos);
}

TEST_P(SameSeedDeterminism, DifferentSeedsPerturbTheWorkload) {
  // Sanity: the digest actually depends on the seed (i.e. the workload is
  // not degenerate), so the equality above is a meaningful check.
  const std::string a = digest_of(GetParam(), 1);
  const std::string b = digest_of(GetParam(), 2);
  if (a.empty() || b.empty()) return;  // earlier ASSERT already failed
  EXPECT_NE(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, SameSeedDeterminism,
                         ::testing::Values(Protocol::kNfsV3, Protocol::kIscsi),
                         [](const auto& info) {
                           return info.param == Protocol::kIscsi ? "Iscsi"
                                                                 : "NfsV3";
                         });

TEST(InvariantAudits, RaidParityHoldsAfterAuditedWorkload) {
  Testbed bed(Protocol::kIscsi, audited_config());
  std::vector<std::uint8_t> buf(64 * 1024, 0xab);
  for (int i = 0; i < 8; ++i) {
    auto fd = bed.vfs().creat("/p" + std::to_string(i), 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(bed.vfs().write(*fd, 0, buf).ok());
    ASSERT_TRUE(bed.vfs().close(*fd).ok());
  }
  bed.settle();
  // Destage the target's write-back cache, so the array holds the blocks.
  bed.cold_caches();
  // Whichever member fails, the region the workload touched reads back
  // as it did on the healthy array, and a rebuild restores the member.
  constexpr std::uint32_t kTouched = 16 * 1024;
  block::Raid5Array& raid = bed.raid();
  std::vector<core::BufRef> healthy;
  raid.read(0, 0, kTouched, healthy);
  const core::BufRef zero = core::BufferPool::instance().zero_page();
  ASSERT_TRUE(std::any_of(healthy.begin(), healthy.end(),
                          [&](const core::BufRef& b) {
                            return b.block() != zero.block();
                          }));
  for (std::uint32_t k = 0; k < raid.config().num_disks; ++k) {
    raid.fail_disk(k);
    std::vector<core::BufRef> degraded;
    raid.read(0, 0, kTouched, degraded);
    std::uint32_t mismatched = 0;
    for (std::uint32_t i = 0; i < kTouched; ++i) {
      if (degraded[i].block() != healthy[i].block()) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u) << "member " << k << " down";
    raid.rebuild_disk(k);
    ASSERT_FALSE(raid.degraded());
  }
}

// ---------------------------------------------------------------------
// Golden digests.  Changing any expected value below is a change to what
// the simulator computes and must be made on purpose.  The sim.timer.*
// counters are left out: they count the event queue's host-side work
// (how many events it handled), not anything the simulated system did.

const char* protocol_slug(Protocol p) {
  switch (p) {
    case Protocol::kNfsV2: return "NfsV2";
    case Protocol::kNfsV3: return "NfsV3";
    case Protocol::kNfsV4: return "NfsV4";
    default: return "Iscsi";
  }
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(NETSTORE_GOLDEN_DIR) + "/" + name);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// run_digest() at seed 0xfeedface on every paper protocol.
std::string golden_run_digest(Protocol p) {
  switch (p) {
    case Protocol::kNfsV2:
      return "NFS v2 seed=4277009102 msgs=246 raw=492 bytes=1201256 rexmit=0 "
             "now=12179697016 srv_cpu=99960000 cli_cpu=7690000 "
             "data=b38b3d8b868dd0";
    case Protocol::kNfsV3:
      return "NFS v3 seed=4277009102 msgs=227 raw=454 bytes=870152 rexmit=0 "
             "now=12157412734 srv_cpu=90720000 cli_cpu=7690000 "
             "data=b38b3d8b868dd0";
    case Protocol::kNfsV4:
      return "NFS v4 seed=4277009102 msgs=389 raw=778 bytes=1086832 rexmit=0 "
             "now=12271521006 srv_cpu=153405000 cli_cpu=7690000 "
             "data=b38b3d8b868dd0";
    default:
      return "iSCSI seed=4277009102 msgs=178 raw=356 bytes=1181376 rexmit=0 "
             "now=12059771729 srv_cpu=52025000 cli_cpu=45700000 "
             "data=b38b3d8b868dd0";
  }
}

class GoldenDigest : public ::testing::TestWithParam<Protocol> {};

TEST_P(GoldenDigest, MixedWorkloadMatchesCommittedDigest) {
  EXPECT_EQ(digest_of(GetParam(), 0xfeedfaceull), golden_run_digest(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, GoldenDigest,
                         ::testing::Values(Protocol::kNfsV2, Protocol::kNfsV3,
                                           Protocol::kNfsV4, Protocol::kIscsi),
                         [](const auto& info) {
                           return protocol_slug(info.param);
                         });

// A fleet (24 clients, 400 ops, seed 4242) on a freshly built, quiesced
// world: its full metrics report, minus sim.timer.*, plus the world's end
// time.  The expected text lives in tests/golden/fleet_<protocol>.txt.
std::string fleet_report_of(Protocol p) {
  core::WorkloadConfig w;
  w.clients = 24;
  w.ops = 400;
  w.seed = 4242;
  auto world = std::make_unique<Testbed>(p);
  world->quiesce();
  core::Fleet fleet(std::move(world), w);
  fleet.run();

  obs::MetricsRegistry::Snapshot snap = fleet.world().metrics().snapshot();
  std::erase_if(snap, [](const auto& kv) {
    return kv.first.starts_with("sim.timer.");
  });
  obs::Report report("determinism_test", "golden fleet");
  report.add_snapshot("fleet", std::move(snap));
  // One metric per line, so a deliberate change diffs readably.
  std::string text = report.json();
  for (std::size_t at = 0; (at = text.find("},\"", at)) != std::string::npos;) {
    text.insert(at += 2, "\n");
  }
  return text + "\nend=" + std::to_string(fleet.world().env().now()) + "\n";
}

class GoldenFleet : public ::testing::TestWithParam<Protocol> {};

TEST_P(GoldenFleet, ReportMatchesCommittedFile) {
  const std::string name =
      std::string("fleet_") + protocol_slug(GetParam()) + ".txt";
  const std::string want = read_golden(name);
  ASSERT_FALSE(want.empty()) << "missing golden file tests/golden/" << name;
  EXPECT_EQ(fleet_report_of(GetParam()), want);
}

INSTANTIATE_TEST_SUITE_P(Protocols, GoldenFleet,
                         ::testing::Values(Protocol::kNfsV3, Protocol::kIscsi),
                         [](const auto& info) {
                           return protocol_slug(info.param);
                         });

// NFSv3 over a 120 ms round trip, above the 70 ms retransmission timeout:
// every call sends one or two spurious duplicates.  net_test only checks
// that some happen; this pins how many, and what they cost.
TEST(GoldenDigest, NfsRetransmissionsAboveTimeoutMatchCommittedDigest) {
  Testbed bed(Protocol::kNfsV3, audited_config());
  bed.set_injected_rtt(sim::milliseconds(120));
  vfs::Vfs& v = bed.vfs();
  ASSERT_TRUE(v.mkdir("/wan", 0755).ok());
  std::vector<std::uint8_t> buf(64 * 1024, 0x5a);
  for (int i = 0; i < 4; ++i) {
    const std::string path = "/wan/f" + std::to_string(i);
    auto fd = v.creat(path, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(v.write(*fd, 0, buf).ok());
    ASSERT_TRUE(v.fsync(*fd).ok());
    ASSERT_TRUE(v.close(*fd).ok());
    ASSERT_TRUE(v.stat(path).ok());
  }
  ASSERT_TRUE(v.readdir("/wan").ok());
  bed.settle();

  const core::StatsSnapshot s = bed.snapshot();
  std::ostringstream os;
  os << "calls=" << bed.metrics().counter("rpc.calls").value()
     << " rexmit=" << s.retransmissions << " c2s=" << s.c2s_messages << "/"
     << s.c2s_bytes << " s2c=" << s.s2c_messages << "/" << s.s2c_bytes
     << " end=" << bed.env().now();
  EXPECT_EQ(os.str(),
            "calls=62 rexmit=89 c2s=151/778320 s2c=62/13664 end=17084341235");
}

}  // namespace
}  // namespace netstore
