#include "rpc/rpc.h"

#include <algorithm>

#include "obs/trace.h"

namespace netstore::rpc {

sim::Time RpcTransport::exchange(std::uint32_t request_payload,
                                 std::uint32_t reply_payload,
                                 ServerWork work) {
  stats_.calls.add(1);
  const sim::Time t0 = env_.now();
  const sim::Time arrival = link_.send(net::Direction::kClientToServer,
                                       config_.header_bytes + request_payload);
  const sim::Time served = work(arrival);
  sim::Time reply = link_.send_at(net::Direction::kServerToClient,
                                  config_.header_bytes + reply_payload, served);

  // Wire time of both legs (transmission + propagation + pipe queueing).
  // Server-side time is attributed by the layers that spend it; the
  // retransmission penalty below deliberately falls into the protocol
  // residual.  Dropped automatically on non-blocking paths (call_async
  // suspends the tracer).
  if (auto* tr = env_.tracer()) {
    tr->charge(obs::Component::kNetwork, (arrival - t0) + (reply - served));
  }

  // Spurious client retransmissions: the client's timer fires while the
  // reply is still in flight; each duplicate request costs a message and
  // delays the effective completion (duplicate processing at the server).
  // The reply time is already known here, so the number of fires is a
  // closed form and the duplicates are sent synchronously in caller
  // context, the house hybrid style (env.h).  Exponential backoff caps
  // the damage: at most two duplicates per call (minor timeouts double
  // the timer in the Linux client).
  if (config_.retrans_timeout > 0) {
    const auto duplicates = std::min<std::uint64_t>(
        2, static_cast<std::uint64_t>((reply - t0) / config_.retrans_timeout));
    for (std::uint64_t i = 0; i < duplicates; ++i) {
      link_.send_at(net::Direction::kClientToServer,
                    config_.header_bytes + request_payload,
                    t0 + static_cast<sim::Duration>(i + 1) *
                             config_.retrans_timeout);
      stats_.retransmissions.add(1);
      reply += config_.retrans_penalty;
    }
  }
  return reply;
}

void RpcTransport::call(std::uint32_t request_payload,
                        std::uint32_t reply_payload, ServerWork work) {
  env_.advance_to(exchange(request_payload, reply_payload, work));
}

sim::Time RpcTransport::call_async(std::uint32_t request_payload,
                                   std::uint32_t reply_payload,
                                   ServerWork work) {
  // Write-behind traffic: the caller does not wait for the wire or the
  // reply, so none of the exchange may bill the active request's span.
  // Time `work` advances still moves the caller's clock (see rpc.h).
  obs::SuspendGuard guard(env_.tracer());
  return exchange(request_payload, reply_payload, work);
}

}  // namespace netstore::rpc
