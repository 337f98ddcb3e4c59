// Fleet contention study: client counts 1 .. 10^6 against one server.
//
// Extends bench_fig7_sharing's trace-level sharing analysis into a live
// protocol experiment (paper §6): each sweep point builds and quiesces a
// world (bench::quiesced_world) and drives it with N flyweight clients under
// an open-loop heavy-tailed arrival process (core::Fleet).  The operation
// budget is fixed per point, so a million-client point measures the first
// `ops` arrivals of a huge fleet, not a million times more work.
//
// What to look for, per the paper's argument:
//   * NFS: sharing-forced GETATTR revalidations grow with the number of
//     sharers — the coherence storm.
//   * iSCSI: the session owns its LUN exclusively; coherence traffic is
//     structurally zero at every client count.
//   * Both: queueing delay (open-loop) rises as offered load outruns the
//     server.
//
// Determinism: fixed --seed + fixed client count => byte-identical
// report output.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fleet.h"

namespace {

struct FleetOptions {
  netstore::bench::Options out;
  std::uint64_t max_clients = 1000000;
  std::uint64_t ops = 4000;
  std::uint64_t seed = 42;
};

FleetOptions parse_fleet_args(int argc, char** argv) {
  FleetOptions o;
  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      o.out.json_path = need_value(i++);
    } else if (arg == "--max-clients") {
      o.max_clients = std::strtoull(need_value(i++), nullptr, 10);
    } else if (arg == "--ops") {
      o.ops = std::strtoull(need_value(i++), nullptr, 10);
    } else if (arg == "--seed") {
      o.seed = std::strtoull(need_value(i++), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\nusage: %s [--json <path>] "
                   "[--max-clients <n>] [--ops <n>] [--seed <n>]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (o.max_clients == 0 || o.ops == 0) {
    std::fprintf(stderr, "--max-clients and --ops must be positive\n");
    std::exit(2);
  }
  return o;
}

const char* slug(netstore::core::Protocol p) {
  return p == netstore::core::Protocol::kIscsi ? "iscsi" : "nfsv3";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netstore;
  const FleetOptions opts = parse_fleet_args(argc, argv);
  bench::print_header(
      "Fleet scale-out: 1 .. 10^6 clients against one server",
      "Radkov et al., FAST'04, §6 (multi-client sharing), extended");
  obs::Report report("bench_fleet",
                     "Radkov et al., FAST'04, §6 sharing, extended");
  obs::ReportTable& tab = report.table(
      "fleet", {"protocol", "clients", "ops", "p50_us", "p99_us", "p999_us",
                "queue_p99_us", "revalidations", "messages", "fairness"});

  // Log-spaced client counts, decade steps to the requested maximum.
  std::vector<std::uint64_t> counts;
  for (std::uint64_t n = 1; n <= opts.max_clients; n *= 10) {
    counts.push_back(n);
  }

  for (core::Protocol p : {core::Protocol::kNfsV3, core::Protocol::kIscsi}) {
    std::printf("\n[%s]\n", core::to_string(p));
    std::printf("%-9s | %9s %9s %9s %11s %8s %9s %7s\n", "clients", "p50us",
                "p99us", "p999us", "queue99us", "revals", "msgs", "jain");
    std::printf("----------+-----------------------------------------------"
                "--------------------\n");
    for (std::uint64_t n : counts) {
      core::WorkloadConfig w;
      w.clients = n;
      w.seed = opts.seed;
      w.ops = opts.ops;
      core::Fleet fleet(bench::quiesced_world(p), w);
      fleet.run();

      const obs::MetricsRegistry::Snapshot snap =
          fleet.world().metrics().snapshot();
      const auto& resp = snap.at("fleet.response_us").summary;
      const double queue_p99 = snap.at("fleet.queue_delay_us").summary.p99;
      const std::uint64_t revals = fleet.forced_revalidations();
      const std::uint64_t msgs = fleet.world().snapshot().messages;
      const double jain = fleet.jain_fairness_index();

      std::printf("%-9llu | %9.0f %9.0f %9.0f %11.0f %8llu %9llu %7.3f\n",
                  static_cast<unsigned long long>(n), resp.p50, resp.p99,
                  resp.p999, queue_p99,
                  static_cast<unsigned long long>(revals),
                  static_cast<unsigned long long>(msgs), jain);
      tab.row({core::to_string(p), n, opts.ops, resp.p50, resp.p99,
               resp.p999, queue_p99, revals, msgs, jain});
      report.add_snapshot(
          std::string("fleet_") + slug(p) + "_n" + std::to_string(n), snap);
    }
  }

  std::printf(
      "\nThe §6 contrast, live: NFS coherence work (revals) grows with the\n"
      "number of sharers while iSCSI's stays zero (exclusive LUN); queueing\n"
      "delay rises for both once open-loop arrivals outrun the server.\n");
  return bench::finish(opts.out, report);
}
