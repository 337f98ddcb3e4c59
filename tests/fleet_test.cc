// Fleet API tests (DESIGN.md §16).
//
// The contracts under test:
//   * Determinism: fixed seed + fixed client count => byte-identical
//     report output, run to run.
//   * N=1 degenerates to the single-client open-loop run: a hand-rolled
//     twin driver issuing the identical op stream produces byte-identical
//     protocol traffic, so the fleet machinery itself costs nothing.
//   * The §6 coherence contrast: NFS forced revalidations grow with the
//     number of sharers; iSCSI's are structurally zero at every count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/fleet.h"
#include "core/testbed.h"
#include "nfs/client.h"
#include "obs/report.h"
#include "sim/rng.h"

namespace netstore {
namespace {

using core::Fleet;
using core::Protocol;
using core::StatsSnapshot;
using core::Testbed;
using core::WorkloadConfig;

// A world with the history every bench sweep point has: construct, then
// quiesce.
std::unique_ptr<Testbed> quiesced_world(Protocol p) {
  auto bed = std::make_unique<Testbed>(p);
  bed->quiesce();
  return bed;
}

// Small-but-busy workload: enough clients and ops to exercise sharing,
// queueing and the private-file path, cheap enough to run many times.
WorkloadConfig small_workload(std::uint64_t clients) {
  WorkloadConfig w;
  w.clients = clients;
  w.ops = 300;
  w.seed = 1234;
  return w;
}

// Full observable digest of a finished fleet: every fleet.* metric (via
// the report JSON, which fixes formatting) plus the world's traffic
// snapshot.  Doubles in the snapshot half are hexfloat, so the
// comparison is bit-exact.
std::string fleet_digest(Fleet& fleet) {
  obs::Report report("fleet_test", "digest");
  report.add_snapshot("fleet", fleet.world().metrics().snapshot());

  const StatsSnapshot s = fleet.world().snapshot();
  std::ostringstream os;
  os << report.json() << "\nnow=" << s.now << " msgs=" << s.messages
     << " bytes=" << s.bytes << " raw=" << s.raw_messages
     << " retrans=" << s.retransmissions << " c2s=" << s.c2s_messages << "/"
     << s.c2s_bytes << " s2c=" << s.s2c_messages << "/" << s.s2c_bytes
     << std::hexfloat << " scpu=" << s.server_cpu_busy
     << " ccpu=" << s.client_cpu_busy << std::defaultfloat
     << " end=" << fleet.world().env().now();
  return os.str();
}

// Traffic-only digest for comparing a fleet world against the twin
// driver's world (the twin registers no fleet.* metrics).
std::string traffic_digest(Testbed& bed) {
  const StatsSnapshot s = bed.snapshot();
  std::ostringstream os;
  os << "now=" << s.now << " msgs=" << s.messages << " bytes=" << s.bytes
     << " raw=" << s.raw_messages << " retrans=" << s.retransmissions
     << " c2s=" << s.c2s_messages << "/" << s.c2s_bytes
     << " s2c=" << s.s2c_messages << "/" << s.s2c_bytes << std::hexfloat
     << " scpu=" << s.server_cpu_busy << " ccpu=" << s.client_cpu_busy
     << std::defaultfloat << " end=" << bed.env().now();
  return os.str();
}

class FleetTest : public ::testing::TestWithParam<Protocol> {};

// Two completely independent runs (each on its own world) with the same
// seed and client count must produce byte-identical reports — the
// determinism contract bench_fleet and CI rely on.
TEST_P(FleetTest, FixedSeedRunsAreByteIdentical) {
  const WorkloadConfig w = small_workload(32);

  std::string digests[2];
  for (std::string& d : digests) {
    Fleet fleet(quiesced_world(GetParam()), w);
    fleet.run();
    d = fleet_digest(fleet);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// Hand-rolled single-client driver mirroring Fleet's per-op logic (same
// Rng stream, same think times, same op mix).  If Fleet(N=1) and this
// twin diverge in protocol traffic, the fleet machinery is no longer a
// pure multiplexer — it added or lost an operation somewhere.
void drive_single_client_twin(Testbed& bed, const WorkloadConfig& w) {
  vfs::Vfs& v = bed.vfs();
  ASSERT_TRUE(v.mkdir("/fleet_shared", 0755).ok());
  ASSERT_TRUE(v.mkdir("/fleet_priv", 0755).ok());
  for (std::uint32_t d = 0; d < w.shared_objects; ++d) {
    auto fd = v.creat("/fleet_shared/o" + std::to_string(d), 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(v.close(*fd).ok());
  }
  bed.settle(sim::seconds(15));
  bed.reset_counters();

  sim::Rng rng(sim::mix64(w.seed ^ sim::mix64(1)));
  sim::ZipfSampler zipf(w.shared_objects, w.zipf_theta);
  std::vector<sim::Time> validated(w.shared_objects, -1);
  std::vector<sim::Time> last_write(w.shared_objects, -1);
  std::uint32_t private_files = 0;

  auto think = [&]() -> sim::Duration {
    const double mean_s = 1.0 / w.arrival.ops_per_client_per_s;
    const double s =
        w.arrival.think_time == core::ThinkTimeDist::kExponential
            ? rng.exponential(mean_s)
            : rng.pareto_with_mean(w.arrival.pareto_shape, mean_s);
    return std::max<sim::Duration>(1, std::llround(s * 1e9));
  };

  sim::Time arrival = bed.env().now() + think();
  for (std::uint64_t done = 0; done < w.ops; ++done) {
    if (bed.env().now() < arrival) bed.env().advance_to(arrival);
    const sim::Time now = bed.env().now();

    if (rng.chance(w.sharing_ratio)) {
      const std::uint64_t obj = zipf.sample(rng);
      const std::string path = "/fleet_shared/o" + std::to_string(obj);
      const bool write = rng.chance(w.shared_write_fraction);
      if (bed.is_nfs()) {
        const sim::Time seen = validated[obj];
        const sim::Duration window = bed.nfs_client().config().attr_timeout;
        if (seen < 0 || seen < last_write[obj] || now - seen >= window) {
          (void)bed.nfs_client().expire_path_attrs(path);
        }
      }
      if (write) {
        (void)v.utime(path, now, now);
        last_write[obj] = bed.env().now();
      } else {
        (void)v.stat(path);
      }
      if (bed.is_nfs()) validated[obj] = bed.env().now();
    } else if (rng.chance(w.private_write_fraction) || private_files == 0) {
      if (private_files == 0 || rng.chance(0.5)) {
        auto fd = v.creat("/fleet_priv/c0_f" + std::to_string(private_files),
                          0644);
        if (fd.ok()) {
          (void)v.close(*fd);
          private_files++;
        }
      } else {
        (void)v.utime(
            "/fleet_priv/c0_f" + std::to_string(rng.uniform(private_files)),
            now, now);
      }
    } else {
      (void)v.stat("/fleet_priv/c0_f" +
                   std::to_string(rng.uniform(private_files)));
    }
    arrival += think();
  }
}

// N=1 byte-identity: Fleet with one client vs the twin driver, each on a
// fresh quiesced world, end with identical traffic and clocks.
TEST_P(FleetTest, SingleClientFleetMatchesTwinDriver) {
  const WorkloadConfig w = small_workload(1);

  Fleet fleet(quiesced_world(GetParam()), w);
  fleet.run();

  std::unique_ptr<Testbed> twin = quiesced_world(GetParam());
  ASSERT_NO_FATAL_FAILURE(drive_single_client_twin(*twin, w));

  EXPECT_EQ(traffic_digest(fleet.world()), traffic_digest(*twin));
}

// Aggregate sanity: the budget is honored, the fairness index is a valid
// Jain value, and one client is perfectly fair with itself.
TEST_P(FleetTest, AggregatesAreConsistent) {
  const WorkloadConfig w = small_workload(8);

  Fleet fleet(quiesced_world(GetParam()), w);
  fleet.run();

  EXPECT_EQ(fleet.ops_completed(), w.ops);
  EXPECT_LE(fleet.shared_ops(), w.ops);
  EXPECT_GE(fleet.active_clients(), 1u);
  EXPECT_LE(fleet.active_clients(), w.clients);
  EXPECT_GT(fleet.jain_fairness_index(), 0.0);
  EXPECT_LE(fleet.jain_fairness_index(), 1.0);
  EXPECT_TRUE(fleet.world().metrics().contains("fleet.ops"));
  EXPECT_TRUE(fleet.world().metrics().contains("fleet.response_us"));
  EXPECT_TRUE(fleet.world().metrics().contains("fleet.queue_delay_us"));

  Fleet solo(quiesced_world(GetParam()), small_workload(1));
  solo.run();
  EXPECT_EQ(solo.active_clients(), 1u);
  EXPECT_DOUBLE_EQ(solo.jain_fairness_index(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Protocols, FleetTest,
                         ::testing::Values(Protocol::kNfsV3, Protocol::kIscsi),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return info.param == Protocol::kIscsi
                                      ? std::string("Iscsi")
                                      : std::string("NfsV3");
                         });

// Revalidation-storm workload: a hot shared set hammered fast enough
// that a single client stays inside the 3 s attribute window (so its
// revalidations are rare), while many sharers cross-invalidate each
// other constantly.
std::uint64_t forced_revals(Protocol p, std::uint64_t clients) {
  WorkloadConfig w;
  w.clients = clients;
  w.ops = 800;
  w.seed = 7;
  w.sharing_ratio = 0.8;
  w.shared_objects = 4;
  w.shared_write_fraction = 0.3;
  w.arrival.ops_per_client_per_s = 50;  // 20 ms mean think time

  Fleet fleet(quiesced_world(p), w);
  fleet.run();
  return fleet.forced_revalidations();
}

// The paper's §6 asymmetry, as an assertion: adding sharers multiplies
// NFS coherence work; iSCSI never pays any.
TEST(FleetCoherenceTest, NfsRevalidationsGrowWithSharersIscsiStaysZero) {
  const std::uint64_t nfs_1 = forced_revals(Protocol::kNfsV3, 1);
  const std::uint64_t nfs_64 = forced_revals(Protocol::kNfsV3, 64);
  EXPECT_GT(nfs_64, 4 * (nfs_1 + 1))
      << "sharing did not amplify NFS revalidation traffic (n=1: " << nfs_1
      << ", n=64: " << nfs_64 << ")";

  EXPECT_EQ(forced_revals(Protocol::kIscsi, 1), 0u);
  EXPECT_EQ(forced_revals(Protocol::kIscsi, 64), 0u);
}

}  // namespace
}  // namespace netstore
