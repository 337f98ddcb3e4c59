// Point-to-point network link between one client and one server.
//
// Models the paper's testbed network: an isolated Gigabit Ethernet segment
// (base RTT well under a millisecond) optionally stretched by NISTNet-style
// injected delay for the WAN experiments (Figure 6).  The link is the
// single place where network messages and bytes are counted, mirroring the
// paper's Ethereal/nfsstat instrumentation.
//
// Timing model: a message handed to the link at time t begins transmission
// when the sender's half of the pipe is free, occupies the pipe for
// size/bandwidth, then arrives one propagation delay later.  Serializing on
// per-direction pipe occupancy is what caps streaming throughput at link
// bandwidth when many transfers are outstanding.
#pragma once

#include <cstdint>

#include "sim/env.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace netstore::net {

enum class Direction { kClientToServer, kServerToClient };

/// Per-direction traffic accounting.
struct TrafficStats {
  sim::Counter messages;  // individual network messages (frames/PDUs)
  sim::Counter bytes;     // payload bytes carried

  void reset() {
    messages.reset();
    bytes.reset();
  }
};

/// Configuration for a Link.  Defaults model the paper's Gigabit LAN.
struct LinkConfig {
  // Effective payload bandwidth.  Gigabit Ethernet minus TCP/IP framing
  // overhead delivers roughly 110 MB/s of payload.
  double bandwidth_bytes_per_sec = 110e6;
  // Base round-trip time of the isolated LAN (paper: "< 1 ms"; measured
  // GbE RTTs in 2003-era hardware were around 100-200 us).
  sim::Duration base_rtt = sim::microseconds(200);
  // NISTNet-style injected round-trip delay (Figure 6 experiments).
  sim::Duration injected_rtt = 0;
  // Per-message fixed processing overhead at each endpoint's NIC/stack.
  sim::Duration per_message_overhead = sim::microseconds(15);
};

/// The simulated network link.
class Link {
 public:
  Link(sim::Env& env, LinkConfig config) : env_(env), config_(config) {}

  /// Total round-trip propagation delay currently in effect.
  [[nodiscard]] sim::Duration rtt() const {
    return config_.base_rtt + config_.injected_rtt;
  }

  /// One-way propagation delay.
  [[nodiscard]] sim::Duration one_way_delay() const { return rtt() / 2; }

  /// Adjusts injected WAN delay (round-trip), as NISTNet would.
  void set_injected_rtt(sim::Duration d) { config_.injected_rtt = d; }

  /// Sets the probability that any message is dropped in transit (failure
  /// injection for RPC retransmission tests).  Default 0.
  void set_loss_probability(double p) { loss_probability_ = p; }

  /// Sends `bytes` in direction `d` starting no earlier than now.
  /// Returns the virtual time the message fully arrives at the receiver.
  /// The caller decides whether to block until then (synchronous request)
  /// or to continue (asynchronous write-behind).
  sim::Time send(Direction d, std::uint64_t bytes);

  /// As send(), but the message may not start before `earliest` (used for
  /// asynchronous exchanges whose preceding leg completes in the caller's
  /// future, e.g. an iSCSI response to a write still in flight).
  sim::Time send_at(Direction d, std::uint64_t bytes, sim::Time earliest);

  /// As send(), but the message may be lost: returns arrival time or -1 if
  /// dropped.  Lost messages still consume sender-side bandwidth and are
  /// still counted (they did cross the wire at the sender).
  sim::Time send_lossy(Direction d, std::uint64_t bytes, sim::Rng& rng);

  [[nodiscard]] const TrafficStats& stats(Direction d) const {
    return d == Direction::kClientToServer ? c2s_ : s2c_;
  }

  /// Non-const access for MetricsRegistry adoption (src/obs).
  [[nodiscard]] TrafficStats& mutable_stats(Direction d) {
    return d == Direction::kClientToServer ? c2s_ : s2c_;
  }

  /// Messages summed over both directions.
  [[nodiscard]] std::uint64_t total_messages() const {
    return c2s_.messages.value() + s2c_.messages.value();
  }

  /// Bytes summed over both directions.
  [[nodiscard]] std::uint64_t total_bytes() const {
    return c2s_.bytes.value() + s2c_.bytes.value();
  }

  void reset_stats() {
    c2s_.reset();
    s2c_.reset();
  }

  [[nodiscard]] sim::Env& env() { return env_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }

 private:
  sim::Time transmit(Direction d, std::uint64_t bytes, sim::Time earliest);

  sim::Env& env_;
  LinkConfig config_;
  double loss_probability_ = 0.0;
  sim::Time c2s_busy_until_ = 0;
  sim::Time s2c_busy_until_ = 0;
  TrafficStats c2s_;
  TrafficStats s2c_;
};

}  // namespace netstore::net
