// Structured bench export: the single sink every bench binary writes
// through, so EXPERIMENTS.md numbers and BENCH_*.json trajectories are
// machine-produced instead of hand-copied from stdout.
//
// A Report is a named set of tables (the paper-table rows the bench also
// prints), registry snapshots, and trace summaries.  Rendering is fully
// deterministic — ordered containers, fixed float formatting — so two
// same-seed runs produce bit-identical files (the determinism suite
// asserts exactly that).
//
// JSON schema (validated by tools/check_report.py):
//   {
//     "format": "netstore-report-v1",
//     "bench": "<binary name>",
//     "reproduces": "<paper reference>",
//     "tables": [{"name": ..., "columns": [...], "rows": [[...], ...]}],
//     "snapshots": [{"label": ..., "metrics": {"<key>": {...}, ...}}]
//   }
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace netstore::obs {

/// One table cell; implicitly constructible from the types bench rows use.
class Cell {
 public:
  enum class Kind { kString, kInt, kUInt, kDouble };

  Cell(const char* s) : kind_(Kind::kString), str_(s) {}            // NOLINT
  Cell(std::string s) : kind_(Kind::kString), str_(std::move(s)) {} // NOLINT
  Cell(double d) : kind_(Kind::kDouble), num_(d) {}                 // NOLINT
  Cell(std::uint64_t u) : kind_(Kind::kUInt), u64_(u) {}            // NOLINT
  Cell(std::int64_t i) : kind_(Kind::kInt), i64_(i) {}              // NOLINT
  Cell(int i) : kind_(Kind::kInt), i64_(i) {}                       // NOLINT

  [[nodiscard]] Kind kind() const { return kind_; }
  /// JSON token for this cell (quoted+escaped string or bare number).
  [[nodiscard]] std::string json() const;

 private:
  Kind kind_;
  std::string str_;
  double num_ = 0;
  std::uint64_t u64_ = 0;
  std::int64_t i64_ = 0;
};

struct ReportTable {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;

  /// Appends a row; the cell count must match the column count.
  void row(std::vector<Cell> cells);
};

class Report {
 public:
  Report(std::string bench, std::string reproduces)
      : bench_(std::move(bench)), reproduces_(std::move(reproduces)) {}

  /// Adds (and returns) a table with the given header.  The reference is
  /// stable for the Report's lifetime — adding further tables (including
  /// via add_trace_summary) never invalidates it.
  ReportTable& table(const std::string& name,
                     std::vector<std::string> columns);

  /// Adds a full registry snapshot under `label`.
  void add_snapshot(const std::string& label,
                    MetricsRegistry::Snapshot snap);

  /// Adds a per-request latency summary table for `tracer` named
  /// "trace:<label>": one row per component plus one per request class.
  void add_trace_summary(const std::string& label, Tracer& tracer);

  [[nodiscard]] const std::string& bench() const { return bench_; }

  [[nodiscard]] std::string json() const;

  /// Writes `content` to `path`; returns false (and keeps going) on I/O
  /// error so a bad --json path never kills a long bench run.
  static bool write_file(const std::string& path, const std::string& content);

 private:
  std::string bench_;
  std::string reproduces_;
  std::vector<std::unique_ptr<ReportTable>> tables_;
  std::vector<std::pair<std::string, MetricsRegistry::Snapshot>> snapshots_;
};

/// Fixed, locale-independent float formatting for the JSON export
/// ("%.10g"; integral values render without a decimal point).
[[nodiscard]] std::string format_double(double d);

/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace netstore::obs
