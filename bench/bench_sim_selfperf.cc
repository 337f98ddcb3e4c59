// bench_sim_selfperf: wall-clock throughput of the simulator itself.
//
// Unlike the paper benches (which measure *virtual* time), this one times
// the simulator's own hot loops with the host clock:
//
//   events/sec    a self-rescheduling daemon workload drained through the
//                 event loop (sim::Task + 4-ary heap).
//   syscalls/sec  warm-cache reads driven through a full Testbed VFS stack
//                 (protocol, caches, RAID — the end-to-end per-op cost).
//
//   allocs/syscall  BufferPool fallback allocations per warm read: the
//                 steady-state data path must run off the frame free
//                 list, so this is ~0 once caches are warm.
//
//   copy scaling  charged copy bytes per warm syscall across I/O sizes
//                 (4 KB..64 KB, iSCSI and NFSv3): every charged copy is
//                 a user-boundary crossing, so below-boundary
//                 bytes/syscall is ~0 in the warm steady state
//                 (DESIGN.md §17).
//
//   bench_sim_selfperf [--events N] [--syscalls N] [--json PATH]
//                      [--min-events-per-sec X]
//                      [--max-allocs-per-syscall X]
//                      [--max-copied-bytes-per-syscall X]
//
// The --min-*/--max-* flags make the binary a CI gate: exit 1 if any
// measured value lands on the wrong side of its floor/ceiling.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/buffer_pool.h"
#include "core/testbed.h"
#include "obs/report.h"
#include "sim/env.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- events/sec ----------------------------------------------------------
//
// `chains` concurrent daemons, each rescheduling itself at a staggered
// period until the shared budget runs out — the flusher/journal/lease
// pattern that dominates real runs.  The capture mirrors an I/O
// completion closure (context pointers plus a file handle and offset):
// 40 bytes, exactly sim::Task's inline storage.
struct Tick {
  netstore::sim::Env* env;
  std::uint64_t* remaining;
  std::uint64_t period;
  std::uint64_t fh;      // completion payload: file handle...
  std::uint64_t offset;  // ...and byte offset

  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    env->schedule_after(period,
                        Tick{env, remaining, period, fh + 1, offset ^ fh});
  }
};

double events_per_sec(std::uint64_t total_events, int chains) {
  netstore::sim::Env env;
  std::uint64_t remaining = total_events;
  for (int i = 0; i < chains; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    env.schedule_after(i + 1, Tick{&env, &remaining, u % 7 + 1, u, u * 4096});
  }
  const auto t0 = Clock::now();
  env.drain();
  const double dt = seconds_since(t0);
  return static_cast<double>(total_events + chains) / dt;
}

// --- syscalls/sec --------------------------------------------------------

struct SyscallPerf {
  double ops_per_sec = 0.0;
  // BufferPool fallback allocations per warm op: frames the free list
  // could not serve during the measured loop.  ~0 in steady state.
  double allocs_per_syscall = 0.0;
};

SyscallPerf syscalls_per_sec(netstore::core::Protocol proto,
                             std::uint64_t ops) {
  netstore::core::Testbed bed(proto);
  constexpr std::uint32_t kFileBytes = 64 * 1024;
  constexpr std::uint32_t kReadBytes = 4 * 1024;

  auto fd = bed.vfs().creat("/hot", 0644);
  if (!fd.ok()) std::abort();
  std::vector<std::uint8_t> buf(kFileBytes, 0x5a);
  if (!bed.vfs().write(*fd, 0, buf).ok()) std::abort();
  if (!bed.vfs().fsync(*fd).ok()) std::abort();

  std::vector<std::uint8_t> rd(kReadBytes);
  (void)bed.vfs().read(*fd, 0, rd);  // warm the cache stack

  auto& pool = netstore::core::BufferPool::instance();
  const std::uint64_t fallbacks_before = pool.alloc_fallbacks();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t off = (i % (kFileBytes / kReadBytes)) * kReadBytes;
    if (!bed.vfs().read(*fd, off, rd).ok()) std::abort();
  }
  const double dt = seconds_since(t0);
  const std::uint64_t fallbacks =
      pool.alloc_fallbacks() - fallbacks_before;
  (void)bed.vfs().close(*fd);
  SyscallPerf res;
  res.ops_per_sec = static_cast<double>(ops) / dt;
  res.allocs_per_syscall =
      ops > 0 ? static_cast<double>(fallbacks) / static_cast<double>(ops)
              : 0.0;
  return res;
}

// --- copy scaling (zero-copy data plane, DESIGN.md §17) ------------------

struct CopyPoint {
  netstore::core::Protocol proto;
  std::uint32_t io_bytes = 0;
  double ops_per_sec = 0.0;
  // Charged bytes per warm read: the user-boundary copy_out plus any
  // below-boundary staging the plane failed to eliminate.
  double copied_per_syscall = 0.0;
  // (bytes_copied - bytes_read - bytes_written) / ops: copies that are
  // NOT user-boundary crossings.  ~0 in the warm steady state — this is
  // what --max-copied-bytes-per-syscall gates.
  double below_boundary_per_syscall = 0.0;
};

CopyPoint copy_point(netstore::core::Protocol proto, std::uint32_t io_bytes,
                     std::uint64_t ops) {
  netstore::core::Testbed bed(proto);
  constexpr std::uint32_t kFileBytes = 256 * 1024;

  auto fd = bed.vfs().creat("/copy", 0644);
  if (!fd.ok()) std::abort();
  std::vector<std::uint8_t> buf(kFileBytes, 0x6b);
  if (!bed.vfs().write(*fd, 0, buf).ok()) std::abort();
  if (!bed.vfs().fsync(*fd).ok()) std::abort();

  // Warm pass: fault the whole file into every cache layer so the timed
  // loop is the steady state the gate is about.
  std::vector<std::uint8_t> rd(io_bytes);
  for (std::uint64_t off = 0; off < kFileBytes; off += io_bytes) {
    if (!bed.vfs().read(*fd, off, rd).ok()) std::abort();
  }

  auto& pool = netstore::core::BufferPool::instance();
  const netstore::core::BufferPool::CopyStats before = pool.copy_stats();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t off = (i % (kFileBytes / io_bytes)) * io_bytes;
    if (!bed.vfs().read(*fd, off, rd).ok()) std::abort();
  }
  const double dt = seconds_since(t0);
  const netstore::core::BufferPool::CopyStats after = pool.copy_stats();
  (void)bed.vfs().close(*fd);

  const auto copied = after.bytes_copied - before.bytes_copied;
  const auto boundary = (after.bytes_read - before.bytes_read) +
                        (after.bytes_written - before.bytes_written);
  CopyPoint pt;
  pt.proto = proto;
  pt.io_bytes = io_bytes;
  pt.ops_per_sec = static_cast<double>(ops) / dt;
  pt.copied_per_syscall =
      ops > 0 ? static_cast<double>(copied) / static_cast<double>(ops) : 0.0;
  pt.below_boundary_per_syscall =
      ops > 0 ? static_cast<double>(copied - boundary) /
                    static_cast<double>(ops)
              : 0.0;
  return pt;
}

std::vector<CopyPoint> copy_scaling(std::uint64_t ops) {
  std::vector<CopyPoint> points;
  for (netstore::core::Protocol p :
       {netstore::core::Protocol::kIscsi, netstore::core::Protocol::kNfsV3}) {
    for (std::uint32_t io : {4u * 1024, 8u * 1024, 16u * 1024, 32u * 1024,
                             64u * 1024}) {
      points.push_back(copy_point(p, io, ops));
    }
  }
  return points;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--events N] [--syscalls N] [--json PATH] "
               "[--min-events-per-sec X] "
               "[--max-allocs-per-syscall X] "
               "[--max-copied-bytes-per-syscall X]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n_events = 2'000'000;
  std::uint64_t n_syscalls = 200'000;
  // Default daemon count matches reality: the hybrid simulation style
  // keeps the pending-event queue shallow (instrumented Testbed runs hold
  // ~2 events — flusher tick + journal commit), so 4 concurrent chains is
  // already generous.  --chains explores deeper queues.
  int chains = 4;
  std::string json_path;
  double min_events_per_sec = 0.0;
  double max_allocs_per_syscall = -1.0;
  double max_copied_bytes_per_syscall = -1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--events" && has_value) {
      n_events = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--chains" && has_value) {
      chains = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (chains < 1) chains = 1;
    } else if (arg == "--syscalls" && has_value) {
      n_syscalls = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--min-events-per-sec" && has_value) {
      min_events_per_sec = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-allocs-per-syscall" && has_value) {
      max_allocs_per_syscall = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-copied-bytes-per-syscall" && has_value) {
      max_copied_bytes_per_syscall = std::strtod(argv[++i], nullptr);
    } else {
      return usage(argv[0]);
    }
  }

  const int kChains = chains;
  const std::uint64_t inline_before =
      netstore::sim::Task::inline_constructions();
  const std::uint64_t heap_before = netstore::sim::Task::heap_constructions();

  const double events = events_per_sec(n_events, kChains);
  const std::uint64_t inline_delta =
      netstore::sim::Task::inline_constructions() - inline_before;
  const std::uint64_t heap_delta =
      netstore::sim::Task::heap_constructions() - heap_before;

  const SyscallPerf sys_iscsi =
      syscalls_per_sec(netstore::core::Protocol::kIscsi, n_syscalls);
  const SyscallPerf sys_nfsv3 =
      syscalls_per_sec(netstore::core::Protocol::kNfsV3, n_syscalls);

  const std::vector<CopyPoint> copy_points = copy_scaling(n_syscalls / 10);

  std::printf("%-24s %16s\n", "metric", "per second");
  std::printf("%-24s %16.0f\n", "events", events);
  std::printf("%-24s %16.0f\n", "syscalls (iSCSI warm)", sys_iscsi.ops_per_sec);
  std::printf("%-24s %16.0f\n", "syscalls (NFSv3 warm)", sys_nfsv3.ops_per_sec);
  std::printf("task inline/heap constructions: %llu / %llu\n",
              static_cast<unsigned long long>(inline_delta),
              static_cast<unsigned long long>(heap_delta));
  std::printf("pool allocs/syscall: iSCSI %.4f, NFSv3 %.4f\n",
              sys_iscsi.allocs_per_syscall, sys_nfsv3.allocs_per_syscall);
  double worst_below_boundary = 0.0;
  for (const CopyPoint& pt : copy_points) {
    worst_below_boundary =
        std::max(worst_below_boundary, pt.below_boundary_per_syscall);
    std::printf("copies %-6s %5u B reads: %10.0f ops/s, %8.0f B "
                "copied/syscall, %6.0f B below boundary\n",
                netstore::core::to_string(pt.proto), pt.io_bytes,
                pt.ops_per_sec, pt.copied_per_syscall,
                pt.below_boundary_per_syscall);
  }
  if (!json_path.empty()) {
    netstore::obs::Report report("bench_sim_selfperf",
                                 "simulator hot-path wall-clock throughput");
    auto& t = report.table("selfperf", {"benchmark", "ops", "ops_per_sec"});
    t.row({"events", n_events + kChains, events});
    t.row({"syscalls_iscsi_warm", n_syscalls, sys_iscsi.ops_per_sec});
    t.row({"syscalls_nfsv3_warm", n_syscalls, sys_nfsv3.ops_per_sec});
    auto& s = report.table("task_storage", {"counter", "value"});
    s.row({"inline_constructions", inline_delta});
    s.row({"heap_constructions", heap_delta});
    auto& ap = report.table("pool_path", {"metric", "value"});
    ap.row({"allocs_per_syscall_iscsi", sys_iscsi.allocs_per_syscall});
    ap.row({"allocs_per_syscall_nfsv3", sys_nfsv3.allocs_per_syscall});
    auto& cs = report.table(
        "copy_scaling", {"protocol", "io_bytes", "ops_per_sec",
                         "copied_bytes_per_syscall",
                         "below_boundary_bytes_per_syscall"});
    for (const CopyPoint& pt : copy_points) {
      cs.row({netstore::core::to_string(pt.proto),
              static_cast<std::uint64_t>(pt.io_bytes), pt.ops_per_sec,
              pt.copied_per_syscall, pt.below_boundary_per_syscall});
    }
    // Pool telemetry rides along unconditionally here: this bench exists
    // to watch the simulator's own mechanics, and its output is not part
    // of any byte-identity comparison.
    report.add_snapshot("pool", netstore::bench::pool_snapshot());
    if (!netstore::obs::Report::write_file(json_path, report.json())) {
      return 1;
    }
  }

  if (min_events_per_sec > 0 && events < min_events_per_sec) {
    std::fprintf(stderr,
                 "FAIL: events/sec %.0f below floor %.0f\n", events,
                 min_events_per_sec);
    return 1;
  }
  if (max_allocs_per_syscall >= 0) {
    const double worst =
        std::max(sys_iscsi.allocs_per_syscall, sys_nfsv3.allocs_per_syscall);
    if (worst > max_allocs_per_syscall) {
      std::fprintf(stderr,
                   "FAIL: %.4f pool allocs/syscall above ceiling %.4f\n",
                   worst, max_allocs_per_syscall);
      return 1;
    }
  }
  if (max_copied_bytes_per_syscall >= 0 &&
      worst_below_boundary > max_copied_bytes_per_syscall) {
    std::fprintf(stderr,
                 "FAIL: %.0f below-boundary copied bytes/syscall above "
                 "ceiling %.0f\n",
                 worst_below_boundary, max_copied_bytes_per_syscall);
    return 1;
  }
  return 0;
}
