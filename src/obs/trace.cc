#include "obs/trace.h"

#include <algorithm>

#include "core/check.h"

namespace netstore::obs {

const char* to_string(Component c) {
  switch (c) {
    case Component::kNetwork:
      return "network";
    case Component::kCpu:
      return "cpu";
    case Component::kCache:
      return "cache";
    case Component::kMedia:
      return "media";
    case Component::kProtocol:
      return "protocol";
  }
  return "?";
}

const char* to_string(Op op) {
  switch (op) {
    case Op::kMeta:
      return "meta";
    case Op::kRead:
      return "read";
    case Op::kWrite:
      return "write";
    case Op::kOpen:
      return "open";
    case Op::kClose:
      return "close";
  }
  return "?";
}

Tracer::Tracer(std::size_t ring_capacity) : ring_capacity_(ring_capacity) {
  NETSTORE_CHECK(ring_capacity_ > 0, "trace ring capacity must be positive");
  ring_.reserve(std::min<std::size_t>(ring_capacity_, 1024));
}

SpanId Tracer::begin(Op op, sim::Time now) {
  SpanRecord r;
  r.id = next_id_++;
  r.op = op;
  r.start = now;
  active_.push_back(r);
  return r.id;
}

void Tracer::charge(Component c, sim::Duration d) {
  if (suspended_ > 0 || active_.empty() || d <= 0) return;
  if (c == Component::kProtocol) return;  // derived residual only
  for (SpanRecord& span : active_) {
    span.component[static_cast<std::size_t>(c)] += d;
  }
}

void Tracer::end(SpanId id, sim::Time now) {
  NETSTORE_CHECK(!active_.empty(), "Tracer::end with no active span");
  NETSTORE_CHECK_EQ(active_.back().id, id,
                    "Tracer::end out of LIFO order");
  SpanRecord span = active_.back();
  active_.pop_back();

  span.end = now;
  NETSTORE_CHECK_GE(span.end, span.start, "span ended before it began");
  const sim::Duration total = span.total();
  sim::Duration attributed = 0;
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    if (i == static_cast<std::size_t>(Component::kProtocol)) continue;
    attributed += span.component[i];
  }
  if (attributed > total) {
    // Model bug: a layer billed this request for time it did not wait.
    // Clamp so the invariant sum(components) == total still holds for the
    // non-protocol part, and count the event so tests can assert zero.
    overattributed_.add(1);
    span.component[static_cast<std::size_t>(Component::kProtocol)] = 0;
  } else {
    span.component[static_cast<std::size_t>(Component::kProtocol)] =
        total - attributed;
  }

  if (ring_.size() < ring_capacity_) {
    ring_.push_back(span);
  } else {
    ring_[completed_.value() % ring_capacity_] = span;
  }
  completed_.add(1);

  constexpr double kUs = 1e3;  // ns per µs
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    component_us_[i].record(static_cast<double>(span.component[i]) / kUs);
  }
  op_total_us_[static_cast<std::size_t>(span.op)].record(
      static_cast<double>(total) / kUs);
  total_us_.record(static_cast<double>(total) / kUs);
}

std::vector<SpanRecord> Tracer::recent() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < ring_capacity_) {
    out = ring_;
  } else {
    const std::size_t head = completed_.value() % ring_capacity_;
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

void Tracer::reset() {
  ring_.clear();
  completed_.reset();
  overattributed_.reset();
  for (sim::Sampler& s : component_us_) s.reset();
  for (sim::Sampler& s : op_total_us_) s.reset();
  total_us_.reset();
}

}  // namespace netstore::obs
