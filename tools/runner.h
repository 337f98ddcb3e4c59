// Parallel scenario runner: fans independent Testbed experiments across a
// thread pool.
//
// The simulator itself stays single-threaded — one Testbed is one virtual
// clock and is never shared.  Parallelism comes from running *different*
// scenarios (protocol x workload x seed) on private Testbeds in worker
// threads, which is safe because a scenario touches nothing global.  The
// result of scenario i is slotted by index, so the output is byte-identical
// for any worker count — that property is asserted by runner_test and the
// CI perf-smoke job.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/testbed.h"

namespace netstore::tools {

/// Workload shape a scenario drives through the VFS.
enum class WorkloadKind {
  kMixedMeta,   // creat/write/fsync/rename/unlink churn + readback
  kSequential,  // large sequential write then sequential read
};

struct Scenario {
  std::string name;  // unique; names the per-scenario report/file
  core::Protocol proto = core::Protocol::kNfsV3;
  WorkloadKind kind = WorkloadKind::kMixedMeta;
  std::uint64_t seed = 1;
  int files = 16;                      // kMixedMeta: file count
  std::uint32_t io_bytes = 16 * 1024;  // per-op I/O size
};

/// Per-scenario outcome: the rendered netstore-report-v1 JSON plus the
/// summary numbers the merged report tabulates.
struct ScenarioResult {
  std::string json;
  sim::Time now = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  sim::Duration server_cpu = 0;
  sim::Duration client_cpu = 0;
  std::uint64_t data_hash = 0;  // FNV-1a over every byte read back
};

/// Runs one scenario on a private, freshly built and quiesced Testbed
/// (deterministic: depends only on the Scenario fields).
[[nodiscard]] ScenarioResult run_scenario(const Scenario& sc);

/// Runs all scenarios across `workers` threads (clamped to >= 1).
/// result[i] corresponds to scenarios[i] regardless of worker count or
/// completion order.
[[nodiscard]] std::vector<ScenarioResult> run_scenarios(
    std::span<const Scenario> scenarios, unsigned workers);

/// Caps `requested` workers at the machine's hardware threads: every
/// scenario runs single-threaded, so more workers than threads only adds
/// contention.  `hardware_threads` = 0 queries the host; pass an explicit
/// value for deterministic tests.  Never returns less than 1, and never
/// raises `requested`.  Worker count only affects wall-clock, so the
/// clamp cannot change any scenario's output.
[[nodiscard]] unsigned clamp_workers(unsigned requested,
                                     unsigned hardware_threads = 0);

/// One netstore-report-v1 document summarizing every scenario, rows in
/// list order — byte-identical however the results were produced.
[[nodiscard]] std::string merged_report(std::span<const Scenario> scenarios,
                                        std::span<const ScenarioResult> results);

/// The built-in scenario catalogue bench_runner exposes by name.
[[nodiscard]] const std::vector<Scenario>& builtin_scenarios();

}  // namespace netstore::tools
