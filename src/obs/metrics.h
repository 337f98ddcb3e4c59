// MetricsRegistry: the single naming authority for every measurement the
// testbed exposes.
//
// Every counter and sampler is reachable under a hierarchical,
// dot-separated key ("link.c2s.bytes", "rpc.calls",
// "trace.component.media_us"), replacing the per-class getter sprawl the
// paper-table benches used to navigate.  The registry supports two
// registration styles:
//
//   * owned metrics   — created on first use via counter()/sampler();
//                       the registry owns storage.
//   * adopted metrics — existing component members (link traffic counters,
//                       cache hit counters, ...) registered by reference so
//                       legacy ownership stays put while snapshots see one
//                       coherent namespace.
//
// A key names exactly one metric of exactly one kind for the lifetime of
// the registry; re-registering a key (or reusing it as another kind) is a
// NETSTORE_CHECK failure, not a silent aliasing bug.
//
// snapshot() renders the whole namespace into an ordered, value-only map;
// diff() subtracts two snapshots counter-wise.  Both are deterministic:
// iteration order is key order (std::map), never hash order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "sim/stats.h"

namespace netstore::obs {

/// Value of one metric at snapshot time.
struct MetricValue {
  enum class Kind { kCounter, kSampler };

  Kind kind = Kind::kCounter;
  // kCounter: the count.  kSampler: count.
  std::uint64_t count = 0;
  // kSampler only.
  sim::Sampler::Summary summary;
};

class MetricsRegistry {
 public:
  using Snapshot = std::map<std::string, MetricValue>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- owned metrics (created on first use) ---------------------------
  sim::Counter& counter(const std::string& key);
  sim::Sampler& sampler(const std::string& key);

  // --- adopted metrics (component-owned storage) ----------------------
  void adopt_counter(const std::string& key, sim::Counter& c);
  void adopt_sampler(const std::string& key, sim::Sampler& s);

  /// True if `key` names a registered metric of any kind.
  [[nodiscard]] bool contains(const std::string& key) const {
    return metrics_.count(key) != 0;
  }
  [[nodiscard]] std::size_t size() const { return metrics_.size(); }

  /// Values of every metric, ordered by key.
  [[nodiscard]] Snapshot snapshot() const;

  /// Counter-wise difference `newer - older`: counters subtract;
  /// sampler values are taken from `newer`
  /// unchanged (samples are not invertible).  Keys present only in
  /// `newer` pass through; keys present only in `older` are dropped.
  [[nodiscard]] static Snapshot diff(const Snapshot& newer,
                                     const Snapshot& older);

  /// Resets every metric, owned and adopted.
  void reset();

 private:
  struct Metric {
    MetricValue::Kind kind;
    // Exactly one of these is non-null; owned_* also keeps storage alive.
    sim::Counter* counter = nullptr;
    sim::Sampler* sampler = nullptr;
    std::unique_ptr<sim::Counter> owned_counter;
    std::unique_ptr<sim::Sampler> owned_sampler;
  };

  void check_fresh(const std::string& key) const;

  std::map<std::string, Metric> metrics_;
};

}  // namespace netstore::obs
