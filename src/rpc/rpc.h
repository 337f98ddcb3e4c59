// SunRPC-style transport over the simulated link.
//
// One RPC = one request message + one reply message; the paper's NFS
// "message counts" are RPC transactions, which this class counts.
//
// The transport reproduces the Linux 2.4 client idiosyncrasy the paper
// found in the Figure 6 experiments: a conservative retransmission timer
// that fires even though the reply is in transit once the WAN round-trip
// approaches it, wasting messages and adding service delay.  An exchange
// runs synchronously, so the reply time is known before the call returns
// and the number of spurious fires is computed in closed form; no timer
// event is scheduled.
#pragma once

#include <cstdint>

#include "net/link.h"
#include "sim/env.h"
#include "sim/func_ref.h"
#include "sim/stats.h"

namespace netstore::rpc {

struct RpcConfig {
  // Marshalling overhead of RPC + protocol headers per message.
  std::uint32_t header_bytes = 112;
  // Client retransmission timeout.  Linux's NFS-over-TCP client in 2.4
  // kept its own timer rather than trusting TCP error recovery; with the
  // default minor timeout this fires spuriously for RTTs near/above it.
  sim::Duration retrans_timeout = sim::milliseconds(70);
  // Extra delay the reply effectively suffers per spurious retransmission
  // (duplicate processing, congestion-window collapse).
  sim::Duration retrans_penalty = sim::milliseconds(14);
};

struct RpcStats {
  sim::Counter calls;            // completed RPC transactions
  sim::Counter retransmissions;  // spurious duplicate requests

  void reset() {
    calls.reset();
    retransmissions.reset();
  }
};

/// The server side of one RPC: takes the request's arrival time, performs
/// the work (which may consume simulated time), and returns the time the
/// reply is ready to transmit.  A non-owning view: the transport invokes
/// it synchronously inside call/call_async and never stores it.
using ServerWork = sim::FuncRef<sim::Time(sim::Time arrival)>;

class RpcTransport {
 public:
  RpcTransport(sim::Env& env, net::Link& link, RpcConfig config)
      : env_(env), link_(link), config_(config) {}

  /// Synchronous call: blocks (advances the clock) until the reply
  /// arrives.  `payload` bytes are added on top of headers in each
  /// direction.
  void call(std::uint32_t request_payload, std::uint32_t reply_payload,
            ServerWork work);

  /// Asynchronous call (unstable WRITEs): the caller does not wait for
  /// the wire legs or the reply, and the exchange bills no traced
  /// component; returns the reply's arrival time.  `work` still runs on
  /// the caller's clock, so whatever it advances (the NFS server's CPU
  /// charge) the caller waits for, in its span's residual.
  sim::Time call_async(std::uint32_t request_payload,
                       std::uint32_t reply_payload, ServerWork work);

  [[nodiscard]] const RpcStats& stats() const { return stats_; }
  /// Non-const access for MetricsRegistry adoption (src/obs).
  [[nodiscard]] RpcStats& mutable_stats() { return stats_; }
  void reset_stats() { stats_.reset(); }

  [[nodiscard]] net::Link& link() { return link_; }
  [[nodiscard]] sim::Env& env() { return env_; }
  [[nodiscard]] const RpcConfig& config() const { return config_; }

 private:
  sim::Time exchange(std::uint32_t request_payload,
                     std::uint32_t reply_payload, ServerWork work);

  sim::Env& env_;
  net::Link& link_;
  RpcConfig config_;
  RpcStats stats_;
};

}  // namespace netstore::rpc
