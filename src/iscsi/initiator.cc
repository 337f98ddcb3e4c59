#include "iscsi/initiator.h"

#include <algorithm>
#include <stdexcept>

#include "core/check.h"
#include "iscsi/pdu.h"
#include "obs/trace.h"

namespace netstore::iscsi {

using block::kBlockSize;
using net::Direction;

Initiator::Initiator(sim::Env& env, net::Link& link, Target& target,
                     SessionParams params)
    : env_(env), link_(link), target_(target), params_(params) {}

void Initiator::login() {
  NETSTORE_CHECK_NE(state_, SessionState::kLoggedIn, "double login");
  target_.claim_lun(params_.lun);  // exclusive ownership, before any I/O
  const sim::Time req = link_.send(
      Direction::kClientToServer, pdu_size(params_.login_negotiation_bytes));
  const sim::Time resp = link_.send_at(
      Direction::kServerToClient, pdu_size(params_.login_negotiation_bytes),
      req);
  env_.advance_to(resp);
  exchanges_.add(1);
  state_ = SessionState::kLoggedIn;
}

void Initiator::logout() {
  NETSTORE_CHECK_EQ(state_, SessionState::kLoggedIn, "session not logged in");
  flush();
  const sim::Time req =
      link_.send(Direction::kClientToServer, pdu_size(0));
  const sim::Time resp =
      link_.send_at(Direction::kServerToClient, pdu_size(0), req);
  env_.advance_to(resp);
  exchanges_.add(1);
  state_ = SessionState::kLoggedOut;
  target_.release_lun(params_.lun);
}

sim::Time Initiator::issue_read(block::Lba lba, std::uint32_t nblocks,
                                std::vector<core::BufRef>& out) {
  NETSTORE_CHECK_EQ(state_, SessionState::kLoggedIn, "session not logged in");
  exchanges_.add(1);
  sim::Time t = env_.now();
  if (cost_hook_) t += cost_hook_(t, /*is_write=*/false, nblocks);

  // Command PDU.
  const scsi::Cdb cdb = scsi::Cdb::read10(lba, nblocks);
  sim::Time at_target = link_.send_at(Direction::kClientToServer,
                                      pdu_size(0), t);

  // Target executes.
  scsi::CommandResult result;
  const sim::Time served = target_.serve_read(cdb, at_target, out, result);
  if (!result.ok()) {
    // Sense travels back in the response PDU.
    const sim::Time resp = link_.send_at(Direction::kServerToClient,
                                         pdu_size(32), served);
    env_.advance_to(resp);
    throw std::runtime_error("iSCSI READ failed: " +
                             scsi::to_string(cdb.op));
  }

  // Data-In PDUs, segmented; status piggybacks on the final one
  // (phase-collapse, standard for good-status reads).  Segments stream
  // back-to-back — the link serializes their transmission; they do not
  // wait for each other's arrival.
  std::uint64_t remaining =
      static_cast<std::uint64_t>(nblocks) * kBlockSize;
  sim::Time last = served;
  while (remaining > 0) {
    const std::uint32_t seg = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        remaining, params_.max_recv_data_segment_length));
    last = std::max(
        last, link_.send_at(Direction::kServerToClient, pdu_size(seg), served));
    remaining -= seg;
  }
  // Wire time of the command PDU and the Data-In stream; target CPU and
  // array time are attributed at the target.  Dropped automatically on
  // non-blocking paths (prefetch suspends the tracer).
  if (auto* tr = env_.tracer()) {
    tr->charge(obs::Component::kNetwork, (at_target - t) + (last - served));
  }
  return last;
}

sim::Time Initiator::issue_write(block::Lba lba,
                                 std::span<const core::BufRef> blocks) {
  NETSTORE_CHECK_EQ(state_, SessionState::kLoggedIn, "session not logged in");
  // Tagged-queue write: completion is tracked in `outstanding_`, not
  // waited on here, so its time must not bill the active span.  Sync
  // writers pay the wait in write(), which lands in the protocol residual.
  obs::SuspendGuard trace_guard(env_.tracer());
  const auto nblocks = static_cast<std::uint32_t>(blocks.size());
  exchanges_.add(1);
  write_commands_.add(1);
  write_bytes_.add(static_cast<std::uint64_t>(nblocks) * kBlockSize);

  sim::Time t = env_.now();
  if (cost_hook_) t += cost_hook_(t, /*is_write=*/true, nblocks);

  const std::uint64_t total = static_cast<std::uint64_t>(nblocks) * kBlockSize;

  // Command PDU carries immediate data up to the first segment limit.
  std::uint64_t remaining = total;
  const std::uint32_t immediate =
      params_.immediate_data
          ? static_cast<std::uint32_t>(std::min<std::uint64_t>(
                remaining, params_.max_recv_data_segment_length))
          : 0;
  sim::Time last = link_.send_at(Direction::kClientToServer,
                                 pdu_size(immediate), t);
  remaining -= immediate;

  // Remaining data as Data-Out PDUs (InitialR2T=no: unsolicited),
  // streamed back-to-back on the wire.
  while (remaining > 0) {
    const std::uint32_t seg = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        remaining, params_.max_recv_data_segment_length));
    last = std::max(last, link_.send_at(Direction::kClientToServer,
                                        pdu_size(seg), t));
    remaining -= seg;
  }

  scsi::CommandResult result;
  const scsi::Cdb cdb = scsi::Cdb::write10(lba, nblocks);
  const sim::Time served = target_.serve_write(cdb, last, blocks, result);
  if (!result.ok()) {
    throw std::runtime_error("iSCSI WRITE failed: " +
                             scsi::to_string(cdb.op));
  }
  return link_.send_at(Direction::kServerToClient, pdu_size(0), served);
}

void Initiator::read(block::Lba lba, std::uint32_t nblocks,
                     std::vector<core::BufRef>& out) {
  std::uint32_t done = 0;
  const std::uint32_t burst_blocks = params_.max_burst_length / kBlockSize;
  while (done < nblocks) {
    const std::uint32_t n = std::min(nblocks - done, burst_blocks);
    const sim::Time complete = issue_read(lba + done, n, out);
    env_.advance_to(complete);
    done += n;
  }
}

std::optional<sim::Time> Initiator::prefetch(block::Lba lba,
                                             std::uint32_t nblocks,
                                             std::vector<core::BufRef>& out) {
  NETSTORE_CHECK_LE(static_cast<std::uint64_t>(nblocks) * kBlockSize,
                    params_.max_burst_length);
  // Read-ahead is speculative: nobody blocks on it yet.
  obs::SuspendGuard trace_guard(env_.tracer());
  return issue_read(lba, nblocks, out);
}

void Initiator::write(block::Lba lba, std::span<const core::BufRef> blocks,
                      block::WriteMode mode) {
  const std::size_t burst_blocks = params_.max_burst_length / kBlockSize;
  sim::Time last = env_.now();
  for (std::size_t done = 0; done < blocks.size();) {
    const std::size_t n = std::min(blocks.size() - done, burst_blocks);
    outstanding_.reserve(env_, params_.queue_depth);
    const sim::Time complete =
        issue_write(lba + done, blocks.subspan(done, n));
    outstanding_.add(complete);
    last = std::max(last, complete);
    done += n;
  }
  if (mode == block::WriteMode::kSync) env_.advance_to(last);
}

void Initiator::flush() { outstanding_.drain(env_); }

void Initiator::reset_stats() {
  exchanges_.reset();
  write_commands_.reset();
  write_bytes_.reset();
}

}  // namespace netstore::iscsi
