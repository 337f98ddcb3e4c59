// perfbench: host-time benchmark of the netstore simulator.
//
// One process runs one workload: it repeats (fresh set-up, measured phase)
// until its time budget is spent and reports medians.  This header holds
// what the entry point (main.cc), the workloads (workloads.cc) and the ledger
// (ledger.cc) share: the host clock, the span recorder of the traced run,
// the deterministic content generator that checks every byte read back,
// and the per-repetition result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/testbed.h"

namespace perfbench {

namespace core = netstore::core;
namespace sim = netstore::sim;
namespace vfs = netstore::vfs;

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ordered metric name -> value.
using Values = std::map<std::string, double>;

/// Linearly interpolated percentile `p` (0..100) of `v`; sorts `v`.  0 for
/// an empty vector.
double percentile(std::vector<double>& v, double p);

// --- spans -----------------------------------------------------------------

/// What a span covers.  Request roots (bench.*) open with an empty stack;
/// core.* wrap Testbed/Fleet calls, vfs.* wrap one system call each.
enum class Kind : std::uint8_t {
  kSetup,  // bench.setup: the set-up of one repetition
  kTxn,    // bench.txn: one PostMark transaction
  kStep,   // bench.step: one seqrand step (cold caches + one pass of I/O)
  kDrain,  // bench.drain: PostMark's closing settle
  kFleet,  // bench.fleet: the fleet run
  kCheck,  // bench.check: the fleet's output checks
  kBuild,
  kPopulate,
  kSettle,
  kColdCaches,
  kFleetSetup,
  kFleetRun,
  kCreat,
  kOpen,
  kRead,
  kWrite,
  kClose,
  kUnlink,
  kFsync,
  kCount,
};
inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
inline constexpr Kind kFirstVfs = Kind::kCreat;
const char* kind_name(Kind k);

/// Host-time spans of one repetition, kept in memory.  Off (the untraced
/// run) every call is a predictable branch.
class Spans {
 public:
  struct Record {
    Kind kind;
    std::uint32_t parent;   // index of the enclosing span, kNone for roots
    std::uint32_t request;  // shared by every span of one request
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;  // time covered by direct children
    // Counters read at request-root boundaries (0 on other spans).
    std::uint64_t link_messages;
    std::uint64_t disk_requests;
  };
  static constexpr std::uint32_t kNone = ~0u;

  explicit Spans(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  void open(Kind k);
  /// Closes the innermost span.
  void close();
  /// Stores counter deltas on the innermost span (request roots).
  void note_counters(std::uint64_t link_messages, std::uint64_t disk_requests);

  [[nodiscard]] const std::vector<Record>& records() const { return recs_; }
  void clear() {
    recs_.clear();
    stack_.clear();
    requests_ = 0;
  }

 private:
  bool on_;
  std::vector<Record> recs_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t requests_ = 0;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  Span(Spans& s, Kind k) : s_(s.on() ? &s : nullptr) {
    if (s_ != nullptr) s_->open(k);
  }
  ~Span() {
    if (s_ != nullptr) s_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* s_;
};

/// A request root that also records the link messages and disk requests
/// its request caused.
class RequestSpan {
 public:
  RequestSpan(Spans& s, Kind k, core::Testbed& bed);
  ~RequestSpan();
  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

 private:
  Span span_;
  Spans& spans_;
  core::Testbed& bed_;
  std::uint64_t msgs_ = 0;
  std::uint64_t disk_ = 0;
};

// --- content ---------------------------------------------------------------

/// Deterministic file contents: byte `off` of file `key` is a function of
/// (seed, key, off) only — a window into a seed-derived random period at a
/// key-derived start.  Writes hand the window to the file system directly
/// and reads compare against it, so generating and checking cost one
/// memcmp per call.
class Content {
 public:
  static constexpr std::size_t kPeriod = 131071;  // prime: blocks differ

  explicit Content(std::uint64_t seed);

  /// Expected bytes [off, off + n) of file `key`; n <= kPeriod.
  [[nodiscard]] std::span<const std::uint8_t> expect(std::uint64_t key,
                                                     std::uint64_t off,
                                                     std::size_t n) const;
  /// True when `got` holds bytes [off, off + got.size()) of file `key`.
  [[nodiscard]] bool matches(std::uint64_t key, std::uint64_t off,
                             std::span<const std::uint8_t> got);

  /// Test hook: the n-th check (1-based) compares against a copy with one
  /// expected byte flipped, so it must fail.  0 disables.
  void corrupt_check(std::uint64_t n) { corrupt_at_ = n; }

 private:
  std::uint64_t seed_;
  std::vector<std::uint8_t> buf_;  // the period, twice: windows stay contiguous
  std::uint64_t checks_ = 0;
  std::uint64_t corrupt_at_ = 0;
};

// --- one repetition --------------------------------------------------------

struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  double scale = 1.0;            // multiplies every workload size (tests)
  // Content::corrupt_check; on fleet_nfs, any non-zero value unlinks one
  // shared object before the output checks.
  std::uint64_t corrupt_at = 0;
};

/// Everything one repetition produces.  `layer` holds the per-layer
/// ledger: deterministic counts and simulated times always, host-time
/// span totals only when traced.
struct Rep {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t ops = 0;        // operations of the measured phase
  std::uint64_t attempted = 0;  // every checked operation, set-up included
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  Values layer;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one repetition of `p.workload`: a fresh set-up, then the measured
/// phase.  `spans` is cleared first and holds the repetition's spans after.
Rep run_rep(const Params& p, Spans& spans);

// --- ledger (ledger.cc) ----------------------------------------------------

/// Accumulates per-layer counter deltas over bracketed phases of one or
/// more testbeds.  begin() and end() must pair on the same testbed with no
/// remount in between (cold_caches() recreates the fs caches).
class Ledger {
 public:
  void begin(core::Testbed& bed);
  void end(core::Testbed& bed);
  /// Adds the testbed's gauges (resident and dirty pages) and simulated
  /// trace summaries; call once per testbed at the end of its measured
  /// phase.
  void finish(core::Testbed& bed);

  [[nodiscard]] Values& values() { return totals_; }

 private:
  Values before_;
  Values totals_;
};

/// The per-layer metrics of the traced run, in output order.
const std::vector<std::string>& layer_metric_names();

/// FNV-1a over the deterministic simulated entries of `layer`.
std::uint64_t digest(const Values& layer);

/// Folds a traced repetition's spans into `layer`: host seconds and
/// per-call p50/p99 per vfs op, inclusive seconds per core.* kind, self
/// seconds per kind, and bench.self_s.
void add_span_totals(const Spans& spans, Values& layer);

/// Writes the spans as CSV (one line per span, parents before children).
bool write_trace(const Spans& spans, const std::string& path);

}  // namespace perfbench
