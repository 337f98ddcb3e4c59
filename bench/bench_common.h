// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer_pool.h"
#include "core/testbed.h"
#include "obs/report.h"

namespace netstore::bench {

/// A freshly built default-config world for one sweep point: construct,
/// then quiesce (DESIGN.md §13).  Per-point config (e.g. injected RTT) is
/// applied to the returned world.
inline std::unique_ptr<core::Testbed> quiesced_world(core::Protocol p) {
  auto bed = std::make_unique<core::Testbed>(p);
  bed->quiesce();
  return bed;
}

inline const std::vector<core::Protocol>& paper_protocols() {
  static const std::vector<core::Protocol> kProtocols = {
      core::Protocol::kNfsV2, core::Protocol::kNfsV3, core::Protocol::kNfsV4,
      core::Protocol::kIscsi};
  return kProtocols;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

/// Command-line options every bench binary supports.
struct Options {
  std::string json_path;  // --json <path>: write an obs::Report as JSON
};

inline Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a path argument\n", arg.c_str());
        std::exit(2);
      }
      opts.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\nusage: %s [--json <path>]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  return opts;
}

/// Process-wide BufferPool telemetry as a registry-shaped snapshot.
inline obs::MetricsRegistry::Snapshot pool_snapshot() {
  const core::BufferPool& pool = core::BufferPool::instance();
  obs::MetricsRegistry::Snapshot snap;
  auto put = [&snap](const char* key, std::uint64_t v) {
    obs::MetricValue mv;
    mv.kind = obs::MetricValue::Kind::kCounter;
    mv.count = v;
    snap.emplace(key, mv);
  };
  put("pool.slabs", pool.slabs());
  put("pool.shared_pages", pool.shared_pages());
  put("pool.unshare_ops", pool.unshare_ops());
  put("pool.alloc_fallbacks", pool.alloc_fallbacks());
  // Data-plane copy metering (core/iovec.h): every charged copy is a
  // user-boundary crossing, so bytes_copied == bytes_read +
  // bytes_written (check_report.py enforces <= on validated exports).
  put("pool.copies", pool.copies());
  put("pool.bytes_copied", pool.bytes_copied());
  put("pool.bytes_read", pool.bytes_read());
  put("pool.bytes_written", pool.bytes_written());
  return snap;
}

/// Writes the report if --json asked for it; returns the process exit code.
/// With NETSTORE_POOL_STATS set, a "pool" snapshot (BufferPool telemetry)
/// is appended first.  Off by default: pool counters are process-wide and
/// depend on what else the process ran, and the golden digests of the
/// QUICK exports (tests/golden/bench_quick.sha256) pin those outputs.
inline int finish(const Options& opts, obs::Report& report) {
  const char* ps = std::getenv("NETSTORE_POOL_STATS");
  if (ps != nullptr && ps[0] != '\0' && ps[0] != '0') {
    report.add_snapshot("pool", pool_snapshot());
  }
  if (!opts.json_path.empty() &&
      !obs::Report::write_file(opts.json_path, report.json())) {
    return 1;
  }
  return 0;
}

}  // namespace netstore::bench
