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
//   sweep speedup  a Figure-5-shaped parameter sweep (3 modes x 10 I/O
//                 sizes x 4 protocols) run twice: every point built from
//                 scratch (construct + warmup replay + measured op), then
//                 every point forked from one warmed per-protocol
//                 checkpoint (the warm-prototype path the sweep benches
//                 use).  The forked total includes building the
//                 prototypes, so the ratio is the end-to-end win.  Each
//                 point's message count is asserted identical across the
//                 two paths (the checkpoint determinism contract).
//
//   fork cost     per protocol: the wall cost of forking one warmed
//                 checkpoint, against a measured estimate of what a
//                 deep-copying clone would add (heap alloc + 4 KB copy of
//                 every page the image shares).  The ratio is the win
//                 from the copy-on-write BufferPool (DESIGN.md §14).
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
//                      [--min-events-per-sec X] [--min-sweep-speedup X]
//                      [--min-fork-speedup X]
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
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/buffer_pool.h"
#include "core/checkpoint.h"
#include "core/testbed.h"
#include "obs/report.h"
#include "sim/env.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "workloads/microbench.h"

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

// --- sweep speedup (warm-state checkpoint/fork, DESIGN.md §13) -----------

// The warm state a sweep's points share: file-system aging plus a seeded
// 256 KB file (the shape of Microbench::setup), ending quiesced.  This is
// what every from-scratch point replays and every forked point inherits.
void warm_state(netstore::core::Testbed& bed) {
  auto& v = bed.vfs();
  for (int i = 0; i < 320; ++i) {
    if (!v.creat("/age" + std::to_string(i), 0644).ok()) std::abort();
  }
  std::vector<std::uint8_t> blk(64 * 1024, 0x11);
  auto fd = v.creat("/seed", 0644);
  if (!fd.ok()) std::abort();
  for (std::uint64_t k = 0; k < 4; ++k) {
    if (!v.write(*fd, k * blk.size(), blk).ok()) std::abort();
  }
  if (!v.fsync(*fd).ok()) std::abort();
  if (!v.close(*fd).ok()) std::abort();
  bed.quiesce();
}

struct SweepResult {
  double scratch_ms = 0.0;  // every point: construct + warmup + op
  double forked_ms = 0.0;   // prototypes + checkpoints, then fork + op
  int points = 0;
};

// One Figure-5-shaped sweep over `protocols`: 3 modes x 10 sizes each.
// Runs the from-scratch and the forked path over identical points and
// CHECKs that each point measures the same message count on both.
SweepResult sweep_speedup(
    const std::vector<netstore::core::Protocol>& protocols) {
  using netstore::core::Protocol;
  using netstore::core::Testbed;
  struct Mode {
    bool write;
    bool warm;
  };
  const Mode modes[] = {{false, false}, {false, true}, {true, false}};
  const std::uint32_t sizes[] = {128,  256,  512,   1024,  2048,
                                 4096, 8192, 16384, 32768, 65536};

  SweepResult res;
  std::vector<std::uint64_t> scratch_msgs;
  const auto t0 = Clock::now();
  for (Protocol p : protocols) {
    for (const Mode& m : modes) {
      for (std::uint32_t size : sizes) {
        Testbed bed(p);
        warm_state(bed);
        netstore::workloads::Microbench mb(bed);
        scratch_msgs.push_back(mb.io_op(m.write, size, m.warm));
        ++res.points;
      }
    }
  }
  res.scratch_ms = seconds_since(t0) * 1e3;

  std::size_t i = 0;
  const auto t1 = Clock::now();
  for (Protocol p : protocols) {
    Testbed proto(p);
    warm_state(proto);
    netstore::core::Checkpoint cp(proto);
    for (const Mode& m : modes) {
      for (std::uint32_t size : sizes) {
        auto bed = cp.fork();
        netstore::workloads::Microbench mb(*bed);
        const std::uint64_t msgs = mb.io_op(m.write, size, m.warm);
        if (msgs != scratch_msgs[i]) {
          std::fprintf(stderr,
                       "FAIL: sweep point %zu diverged: forked %llu msgs "
                       "vs scratch %llu\n",
                       i, static_cast<unsigned long long>(msgs),
                       static_cast<unsigned long long>(scratch_msgs[i]));
          std::abort();
        }
        ++i;
      }
    }
  }
  res.forked_ms = seconds_since(t1) * 1e3;
  return res;
}

// --- fork cost (copy-on-write BufferPool, DESIGN.md §14) -----------------

struct ForkCost {
  netstore::core::Protocol proto;
  std::uint64_t image_pages = 0;  // pooled pages the checkpoint shares
  double fork_us = 0.0;           // mean wall cost of one fork
  double page_copy_us = 0.0;      // measured alloc+copy cost of the pages
  // What a deep-copying clone would cost relative to the CoW fork: the
  // fork does all the metadata work either way, plus (before this pool)
  // one heap allocation and 4 KB copy per resident page.
  [[nodiscard]] double speedup() const {
    return fork_us > 0 ? (fork_us + page_copy_us) / fork_us : 0.0;
  }
};

ForkCost fork_cost(netstore::core::Protocol p) {
  using netstore::core::Testbed;
  ForkCost res;
  res.proto = p;
  Testbed proto(p);
  warm_state(proto);

  // Checkpoint construction clones every cache layer; with the pool,
  // each resident page's refcount goes 1 -> 2, so the shared_pages delta
  // counts exactly the pages a deep-copying clone would have copied.
  auto& pool = netstore::core::BufferPool::instance();
  const std::uint64_t shared_before = pool.shared_pages();
  netstore::core::Checkpoint cp(proto);
  res.image_pages = pool.shared_pages() - shared_before;

  constexpr int kForks = 64;
  const auto t0 = Clock::now();
  for (int i = 0; i < kForks; ++i) {
    auto bed = cp.fork();
  }
  res.fork_us = seconds_since(t0) * 1e6 / kForks;

  // Measure (not assert) the removed work: one heap allocation plus one
  // 4 KB copy per image page, what the per-layer clones used to do.
  netstore::block::BlockBuf src;
  src.fill(0x3c);
  std::vector<std::unique_ptr<netstore::block::BlockBuf>> copies;
  copies.reserve(res.image_pages);
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < res.image_pages; ++i) {
    // Deliberately the raw allocation the pool replaced — it IS the
    // baseline being measured.  netstore-lint: allow(raw-blockbuf-alloc)
    copies.push_back(std::make_unique<netstore::block::BlockBuf>(src));
  }
  res.page_copy_us = seconds_since(t1) * 1e6;
  return res;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--events N] [--syscalls N] [--json PATH] "
               "[--min-events-per-sec X] [--min-sweep-speedup X] "
               "[--min-fork-speedup X] "
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
  double min_sweep_speedup = 0.0;
  double min_fork_speedup = 0.0;
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
    } else if (arg == "--min-sweep-speedup" && has_value) {
      min_sweep_speedup = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-fork-speedup" && has_value) {
      min_fork_speedup = std::strtod(argv[++i], nullptr);
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

  const SweepResult sweep = sweep_speedup(
      {netstore::core::Protocol::kNfsV2, netstore::core::Protocol::kNfsV3,
       netstore::core::Protocol::kNfsV4, netstore::core::Protocol::kIscsi});
  const double sweep_x =
      sweep.forked_ms > 0 ? sweep.scratch_ms / sweep.forked_ms : 0.0;

  std::vector<ForkCost> forks;
  for (netstore::core::Protocol p :
       {netstore::core::Protocol::kNfsV2, netstore::core::Protocol::kNfsV3,
        netstore::core::Protocol::kNfsV4, netstore::core::Protocol::kIscsi}) {
    forks.push_back(fork_cost(p));
  }

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
  std::printf("sweep (%d points): scratch %.0f ms, forked %.0f ms, "
              "speedup %.2fx\n",
              sweep.points, sweep.scratch_ms, sweep.forked_ms, sweep_x);
  double min_fork_x = 0.0;
  for (const ForkCost& fc : forks) {
    if (min_fork_x == 0.0 || fc.speedup() < min_fork_x) {
      min_fork_x = fc.speedup();
    }
    std::printf("fork %-6s: %5llu pages, fork %.1f us, page copies "
                "+%.1f us, speedup %.2fx\n",
                netstore::core::to_string(fc.proto),
                static_cast<unsigned long long>(fc.image_pages), fc.fork_us,
                fc.page_copy_us, fc.speedup());
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
    auto& sw = report.table("checkpoint_sweep", {"metric", "value"});
    sw.row({"points", static_cast<std::uint64_t>(sweep.points)});
    sw.row({"scratch_ms", sweep.scratch_ms});
    sw.row({"forked_ms", sweep.forked_ms});
    sw.row({"sweep_speedup_x", sweep_x});
    auto& fk = report.table(
        "fork_cost",
        {"protocol", "image_pages", "fork_us", "page_copy_us", "speedup_x"});
    for (const ForkCost& fc : forks) {
      fk.row({netstore::core::to_string(fc.proto), fc.image_pages, fc.fork_us,
              fc.page_copy_us, fc.speedup()});
    }
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
  if (min_sweep_speedup > 0 && sweep_x < min_sweep_speedup) {
    std::fprintf(stderr, "FAIL: sweep speedup %.2fx below floor %.2fx\n",
                 sweep_x, min_sweep_speedup);
    return 1;
  }
  if (min_fork_speedup > 0 && min_fork_x < min_fork_speedup) {
    std::fprintf(stderr, "FAIL: fork speedup %.2fx below floor %.2fx\n",
                 min_fork_x, min_fork_speedup);
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
