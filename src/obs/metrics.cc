#include "obs/metrics.h"

#include "core/check.h"

namespace netstore::obs {

void MetricsRegistry::check_fresh(const std::string& key) const {
  NETSTORE_CHECK(!key.empty(), "metric key must not be empty");
  NETSTORE_CHECK(metrics_.count(key) == 0,
                 ("duplicate metric key: " + key).c_str());
}

sim::Counter& MetricsRegistry::counter(const std::string& key) {
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    NETSTORE_CHECK(it->second.kind == MetricValue::Kind::kCounter,
                   ("metric key reused as a different kind: " + key).c_str());
    return *it->second.counter;
  }
  Metric m;
  m.kind = MetricValue::Kind::kCounter;
  m.owned_counter = std::make_unique<sim::Counter>();
  m.counter = m.owned_counter.get();
  return *metrics_.emplace(key, std::move(m)).first->second.counter;
}

sim::Sampler& MetricsRegistry::sampler(const std::string& key) {
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    NETSTORE_CHECK(it->second.kind == MetricValue::Kind::kSampler,
                   ("metric key reused as a different kind: " + key).c_str());
    return *it->second.sampler;
  }
  Metric m;
  m.kind = MetricValue::Kind::kSampler;
  m.owned_sampler = std::make_unique<sim::Sampler>();
  m.sampler = m.owned_sampler.get();
  return *metrics_.emplace(key, std::move(m)).first->second.sampler;
}

void MetricsRegistry::adopt_counter(const std::string& key, sim::Counter& c) {
  check_fresh(key);
  Metric m;
  m.kind = MetricValue::Kind::kCounter;
  m.counter = &c;
  metrics_.emplace(key, std::move(m));
}

void MetricsRegistry::adopt_sampler(const std::string& key, sim::Sampler& s) {
  check_fresh(key);
  Metric m;
  m.kind = MetricValue::Kind::kSampler;
  m.sampler = &s;
  metrics_.emplace(key, std::move(m));
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  for (const auto& [key, m] : metrics_) {
    MetricValue v;
    v.kind = m.kind;
    switch (m.kind) {
      case MetricValue::Kind::kCounter:
        v.count = m.counter->value();
        break;
      case MetricValue::Kind::kSampler:
        v.count = m.sampler->count();
        v.summary = m.sampler->summary();
        break;
    }
    out.emplace(key, std::move(v));
  }
  return out;
}

MetricsRegistry::Snapshot MetricsRegistry::diff(const Snapshot& newer,
                                                const Snapshot& older) {
  Snapshot out;
  for (const auto& [key, nv] : newer) {
    MetricValue v = nv;
    const auto it = older.find(key);
    if (it != older.end()) {
      NETSTORE_CHECK(it->second.kind == nv.kind,
                     "snapshot diff: metric kind changed between snapshots");
      switch (nv.kind) {
        case MetricValue::Kind::kCounter:
          NETSTORE_CHECK_GE(nv.count, it->second.count,
                            "snapshot diff: counter went backwards");
          v.count = nv.count - it->second.count;
          break;
        case MetricValue::Kind::kSampler:
          break;  // samples are not invertible; keep the newer summary
      }
    }
    out.emplace(key, std::move(v));
  }
  return out;
}

void MetricsRegistry::reset() {
  for (auto& [key, m] : metrics_) {
    switch (m.kind) {
      case MetricValue::Kind::kCounter:
        m.counter->reset();
        break;
      case MetricValue::Kind::kSampler:
        m.sampler->reset();
        break;
    }
  }
}

}  // namespace netstore::obs
