#include "tools/runner.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <utility>

#include "core/check.h"
#include "obs/report.h"
#include "sim/rng.h"

namespace netstore::tools {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Mixed meta-data + data churn (the determinism suite's workload shape):
/// create/write/fsync, random renames and deletions, then read back the
/// survivors in directory order.
std::uint64_t drive_mixed(core::Testbed& bed, const Scenario& sc) {
  sim::Rng rng(sc.seed);
  std::uint64_t hash = 0xcbf29ce484222325ull;

  NETSTORE_CHECK(bed.vfs().mkdir("/work", 0755).ok(), "mkdir /work");
  std::vector<std::uint8_t> buf(sc.io_bytes);
  for (int i = 0; i < sc.files; ++i) {
    const std::string path = "/work/f" + std::to_string(i);
    auto fd = bed.vfs().creat(path, 0644);
    NETSTORE_CHECK(fd.ok(), "creat");
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t off = rng.uniform(4) * sc.io_bytes;
    NETSTORE_CHECK(bed.vfs().write(*fd, off, buf).ok(), "write");
    if (rng.chance(0.5)) {
      NETSTORE_CHECK(bed.vfs().fsync(*fd).ok(), "fsync");
    }
    NETSTORE_CHECK(bed.vfs().close(*fd).ok(), "close");
  }
  for (int i = 0; i < sc.files / 3; ++i) {
    const auto victim = rng.uniform(static_cast<std::uint64_t>(sc.files));
    const std::string from = "/work/f" + std::to_string(victim);
    if (rng.chance(0.5)) {
      (void)bed.vfs().rename(from, from + "r");
    } else {
      (void)bed.vfs().unlink(from);
    }
  }
  auto listing = bed.vfs().readdir("/work");
  NETSTORE_CHECK(listing.ok(), "readdir");
  for (const auto& ent : *listing) {
    if (ent.name == "." || ent.name == "..") continue;
    auto fd = bed.vfs().open("/work/" + ent.name);
    NETSTORE_CHECK(fd.ok(), "open");
    std::vector<std::uint8_t> rd(2ull * sc.io_bytes);
    auto got = bed.vfs().read(*fd, 0, rd);
    NETSTORE_CHECK(got.ok(), "read");
    hash = fnv1a(hash, std::span(rd.data(), *got));
    NETSTORE_CHECK(bed.vfs().close(*fd).ok(), "close");
  }
  return hash;
}

/// Large sequential write, fsync, then sequential read back (the paper's
/// Table 4 streaming shape, scaled down to a smoke-sized run).
std::uint64_t drive_sequential(core::Testbed& bed, const Scenario& sc) {
  sim::Rng rng(sc.seed);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const int chunks = sc.files * 8;  // `files` doubles as a scale knob

  auto fd = bed.vfs().creat("/big", 0644);
  NETSTORE_CHECK(fd.ok(), "creat /big");
  std::vector<std::uint8_t> buf(sc.io_bytes);
  for (int i = 0; i < chunks; ++i) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t off = static_cast<std::uint64_t>(i) * sc.io_bytes;
    NETSTORE_CHECK(bed.vfs().write(*fd, off, buf).ok(), "write");
  }
  NETSTORE_CHECK(bed.vfs().fsync(*fd).ok(), "fsync");
  for (int i = 0; i < chunks; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * sc.io_bytes;
    auto got = bed.vfs().read(*fd, off, buf);
    NETSTORE_CHECK(got.ok(), "read");
    hash = fnv1a(hash, std::span(buf.data(), *got));
  }
  NETSTORE_CHECK(bed.vfs().close(*fd).ok(), "close");
  return hash;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

ScenarioResult run_scenario(const Scenario& sc) {
  core::Testbed bed(sc.proto);
  bed.quiesce();

  ScenarioResult res;
  switch (sc.kind) {
    case WorkloadKind::kMixedMeta:
      res.data_hash = drive_mixed(bed, sc);
      break;
    case WorkloadKind::kSequential:
      res.data_hash = drive_sequential(bed, sc);
      break;
  }
  bed.settle();

  const core::StatsSnapshot snap = bed.snapshot();
  res.now = snap.now;
  res.messages = snap.messages;
  res.bytes = snap.bytes;
  res.server_cpu = snap.server_cpu_busy;
  res.client_cpu = snap.client_cpu_busy;

  obs::Report report(sc.name, "parallel scenario runner");
  auto& table = report.table(
      "scenario", {"name", "protocol", "seed", "virtual_us", "messages",
                   "bytes", "server_cpu_us", "client_cpu_us", "data_hash"});
  table.row({sc.name, core::to_string(sc.proto),
             static_cast<std::uint64_t>(sc.seed),
             static_cast<std::uint64_t>(res.now), res.messages, res.bytes,
             static_cast<std::uint64_t>(res.server_cpu),
             static_cast<std::uint64_t>(res.client_cpu),
             hex(res.data_hash)});
  report.add_snapshot("final", bed.metrics().snapshot());
  report.add_trace_summary("final", bed.tracer());
  res.json = report.json();
  return res;
}

std::vector<ScenarioResult> run_scenarios(std::span<const Scenario> scenarios,
                                          unsigned workers) {
  std::vector<ScenarioResult> results(scenarios.size());
  if (workers < 2 || scenarios.size() < 2) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      results[i] = run_scenario(scenarios[i]);
    }
    return results;
  }

  // Work-stealing by atomic index: each worker owns whole scenarios (and
  // therefore whole Testbeds); results are slotted by index so completion
  // order never shows in the output.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= scenarios.size()) return;
      results[i] = run_scenario(scenarios[i]);
    }
  };
  std::vector<std::thread> threads;
  const unsigned n =
      std::min<unsigned>(workers, static_cast<unsigned>(scenarios.size()));
  threads.reserve(n);
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return results;
}

unsigned clamp_workers(unsigned requested, unsigned hardware_threads) {
  if (requested < 1) requested = 1;
  if (hardware_threads == 0) {
    hardware_threads = std::thread::hardware_concurrency();
    // hardware_concurrency() may legitimately return 0 (unknown); treat
    // the machine as a uniprocessor rather than unbounded.
    if (hardware_threads == 0) hardware_threads = 1;
  }
  return std::min(requested, hardware_threads);
}

std::string merged_report(std::span<const Scenario> scenarios,
                          std::span<const ScenarioResult> results) {
  NETSTORE_CHECK_EQ(scenarios.size(), results.size(),
                    "scenario/result count mismatch");
  obs::Report report("bench_runner", "parallel scenario fan-out");
  auto& table = report.table(
      "scenarios", {"name", "protocol", "seed", "virtual_us", "messages",
                    "bytes", "server_cpu_us", "client_cpu_us", "data_hash"});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = scenarios[i];
    const ScenarioResult& r = results[i];
    table.row({sc.name, core::to_string(sc.proto),
               static_cast<std::uint64_t>(sc.seed),
               static_cast<std::uint64_t>(r.now), r.messages, r.bytes,
               static_cast<std::uint64_t>(r.server_cpu),
               static_cast<std::uint64_t>(r.client_cpu), hex(r.data_hash)});
  }
  return report.json();
}

const std::vector<Scenario>& builtin_scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"mixed_nfsv3", core::Protocol::kNfsV3, WorkloadKind::kMixedMeta, 11},
      {"mixed_iscsi", core::Protocol::kIscsi, WorkloadKind::kMixedMeta, 11},
      {"mixed_nfsv4", core::Protocol::kNfsV4, WorkloadKind::kMixedMeta, 11},
      {"seq_nfsv3", core::Protocol::kNfsV3, WorkloadKind::kSequential, 7},
      {"seq_iscsi", core::Protocol::kIscsi, WorkloadKind::kSequential, 7},
      {"mixed_iscsi_b", core::Protocol::kIscsi, WorkloadKind::kMixedMeta, 23},
  };
  return kScenarios;
}

}  // namespace netstore::tools
