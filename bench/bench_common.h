// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/buffer_pool.h"
#include "core/checkpoint.h"
#include "core/testbed.h"
#include "obs/report.h"

namespace netstore::bench {

/// Per-protocol pool of warmed testbed prototypes (DESIGN.md §13).
///
/// Sweep benches acquire one world per measurement point.  The first
/// acquire() for a (protocol, config) builds a Testbed, quiesces it and
/// captures a core::Checkpoint; every later acquire() forks the stored
/// image in O(state) instead of replaying construction (mkfs, mount,
/// login).  Setting NETSTORE_NO_FORK=1 bypasses the checkpoint: every
/// acquire() then builds and quiesces from scratch.  Both paths hand
/// back a world with the identical history — construct, then quiesce —
/// so a bench's report is byte-identical either way (CI diffs the two).
class WarmPool {
 public:
  WarmPool()
      : no_fork_([] {
          const char* v = std::getenv("NETSTORE_NO_FORK");
          return v != nullptr && v[0] != '\0' && v[0] != '0';
        }()) {}

  /// Default-config testbeds only: the pool caches one image per
  /// protocol, so per-point config (e.g. injected RTT) must be applied to
  /// the returned world, not baked into the prototype.
  [[nodiscard]] std::unique_ptr<core::Testbed> acquire(core::Protocol p) {
    if (no_fork_) return build(p);
    auto& slot = checkpoints_[p];
    if (!slot) slot = std::make_unique<core::Checkpoint>(*build(p));
    return slot->fork();
  }

 private:
  static std::unique_ptr<core::Testbed> build(core::Protocol p) {
    auto bed = std::make_unique<core::Testbed>(p);
    bed->quiesce();
    return bed;
  }

  bool no_fork_;
  std::map<core::Protocol, std::unique_ptr<core::Checkpoint>> checkpoints_;
};

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
  std::string csv_path;   // --csv <path>: same tables as CSV
};

inline Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool is_json = arg == "--json";
    if (is_json || arg == "--csv") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a path argument\n", arg.c_str());
        std::exit(2);
      }
      (is_json ? opts.json_path : opts.csv_path) = argv[++i];
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\nusage: %s [--json <path>] "
                   "[--csv <path>]\n",
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

/// Writes the report to any requested sinks; returns the process exit code.
/// With NETSTORE_POOL_STATS set, a "pool" snapshot (BufferPool telemetry)
/// is appended first.  Off by default: pool counters legitimately differ
/// between forked and from-scratch runs of the same workload, and the
/// byte-identity CI gates compare those outputs.
inline int finish(const Options& opts, obs::Report& report) {
  const char* ps = std::getenv("NETSTORE_POOL_STATS");
  if (ps != nullptr && ps[0] != '\0' && ps[0] != '0') {
    report.add_snapshot("pool", pool_snapshot());
  }
  int rc = 0;
  if (!opts.json_path.empty() &&
      !obs::Report::write_file(opts.json_path, report.json())) {
    rc = 1;
  }
  if (!opts.csv_path.empty() &&
      !obs::Report::write_file(opts.csv_path, report.csv())) {
    rc = 1;
  }
  return rc;
}

}  // namespace netstore::bench
