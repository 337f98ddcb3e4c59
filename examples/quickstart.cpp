// Quickstart: build the two IP-storage stacks the paper compares, run the
// same file operations on each, and watch where the network messages go —
// first with one client, then with a whole fleet of them contending for
// the same server.
//
//   c++ -std=c++20 quickstart.cpp -lnetstore... (or: ninja && ./examples/quickstart)
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.h"
#include "core/testbed.h"

using namespace netstore;

namespace {

void demo(core::Protocol protocol) {
  std::printf("\n--- %s ---\n", core::to_string(protocol));

  // One Testbed = client + Gigabit link + server + RAID-5 array, wired as
  // in the paper's Figure 2.
  core::Testbed bed(protocol);
  vfs::Vfs& fs = bed.vfs();

  // A little meta-data work: a project directory with a few files.
  bed.reset_counters();
  (void)fs.mkdir("/project", 0755);
  for (int i = 0; i < 10; ++i) {
    auto fd = fs.creat("/project/file" + std::to_string(i), 0644);
    std::vector<std::uint8_t> content(2000, static_cast<std::uint8_t>(i));
    (void)fs.write(*fd, 0, content);
    (void)fs.close(*fd);
  }
  (void)fs.readdir("/project");
  (void)fs.stat("/project/file3");
  bed.settle();  // let deferred journal commits / write-back drain

  // One coherent cut of every counter, instead of a getter per stat.
  core::StatsSnapshot snap = bed.snapshot();
  std::printf("meta-data phase: %llu protocol messages, %llu bytes\n",
              static_cast<unsigned long long>(snap.messages),
              static_cast<unsigned long long>(snap.bytes));

  // A data phase: stream one of the files back in.
  bed.reset_counters();
  auto fd = fs.open("/project/file7");
  std::vector<std::uint8_t> buf(2000);
  (void)fs.read(*fd, 0, buf);
  (void)fs.close(*fd);
  snap = bed.snapshot();
  std::printf("data phase:      %llu protocol messages (warm cache: "
              "%s)\n",
              static_cast<unsigned long long>(snap.messages),
              snap.messages == 0 ? "served locally" : "revalidated");

  // The same cost measured the way the paper does (§5.4): CPU busy time.
  std::printf("CPU busy so far: server %.1f ms, client %.1f ms\n",
              sim::to_milliseconds(bed.server_cpu().total_busy()),
              sim::to_milliseconds(bed.client_cpu().total_busy()));
}

void fleet_demo(core::Protocol protocol) {
  std::printf("\n--- %s, 256 clients on one server ---\n",
              core::to_string(protocol));

  // Build and quiesce one world, then drive it with a fleet of flyweight
  // clients under an open-loop heavy-tailed arrival process.
  auto world = std::make_unique<core::Testbed>(protocol);
  world->quiesce();

  core::WorkloadConfig w;
  w.clients = 256;
  w.ops = 1500;
  core::Fleet fleet(std::move(world), w);
  fleet.run();

  const obs::MetricsRegistry::Snapshot m = fleet.world().metrics().snapshot();
  const auto& resp = m.at("fleet.response_us").summary;
  std::printf("response: p50 %.0f us, p99 %.0f us (queue p99 %.0f us)\n",
              resp.p50, resp.p99,
              m.at("fleet.queue_delay_us").summary.p99);
  std::printf("sharing-forced revalidations: %llu  (fairness %.3f)\n",
              static_cast<unsigned long long>(fleet.forced_revalidations()),
              fleet.jain_fairness_index());
}

}  // namespace

int main() {
  std::printf("netstore quickstart: NFS vs iSCSI for IP-networked storage\n");
  std::printf("(reproducing Radkov et al., FAST'04, in simulation)\n");

  demo(core::Protocol::kNfsV3);
  demo(core::Protocol::kIscsi);

  std::printf(
      "\nThe pattern to notice: iSCSI pays more messages when caches are\n"
      "cold (whole meta-data blocks cross the wire), but once its\n"
      "client-side file system is warm, meta-data reads are free and\n"
      "updates aggregate into a couple of journal writes every 5 s.\n");

  fleet_demo(core::Protocol::kNfsV3);
  fleet_demo(core::Protocol::kIscsi);

  std::printf(
      "\nAnd under sharing the stacks diverge again: every NFS client must\n"
      "revalidate shared objects other clients write (GETATTR storms),\n"
      "while the iSCSI session owns its LUN exclusively and pays no\n"
      "coherence traffic at any client count.\n");
  return 0;
}
