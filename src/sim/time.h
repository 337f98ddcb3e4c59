// Virtual time for the netstore discrete-event simulation.
//
// All simulated components share a single virtual clock owned by sim::Env.
// Times are signed 64-bit nanosecond counts; the simulation horizon
// (~292 years) is far beyond any experiment in this repository.
#pragma once

#include <cstdint>

namespace netstore::sim {

/// A point in virtual time, in nanoseconds since simulation start.
using Time = std::int64_t;

/// A span of virtual time, in nanoseconds.
using Duration = std::int64_t;

constexpr Duration kNanosecond = 1;
constexpr Duration kMicrosecond = 1'000;
constexpr Duration kMillisecond = 1'000'000;
constexpr Duration kSecond = 1'000'000'000;

constexpr Duration nanoseconds(std::int64_t n) { return n; }
constexpr Duration microseconds(std::int64_t n) { return n * kMicrosecond; }
constexpr Duration milliseconds(std::int64_t n) { return n * kMillisecond; }
constexpr Duration seconds(std::int64_t n) { return n * kSecond; }

/// Converts a duration to fractional seconds (for reporting only).
constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Converts a duration to fractional milliseconds (for reporting only).
constexpr double to_milliseconds(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

}  // namespace netstore::sim
