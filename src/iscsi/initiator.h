// iSCSI initiator: the client-side half of the block-access protocol.
//
// Presents the remote volume as a block::BlockDevice to the client's local
// file system (Figure 1(b) of the paper).  Each SCSI command is one
// protocol *exchange* — the unit the paper's message counts use — carried
// as a command PDU, data PDUs, and a response PDU over the link.
//
// Asynchronous writes use the tagged command queue: they consume link and
// target time but return immediately; the queue depth bounds outstanding
// commands, and flush() is the barrier.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "block/device.h"
#include "iscsi/session.h"
#include "iscsi/target.h"
#include "net/link.h"
#include "sim/env.h"
#include "sim/in_flight.h"
#include "sim/stats.h"

namespace netstore::iscsi {

/// Charged at the initiator per command (SCSI midlayer + TCP/IP work).
using InitiatorCostHook = std::function<sim::Duration(
    sim::Time at, bool is_write, std::uint32_t nblocks)>;

class Initiator final : public block::BlockDevice {
 public:
  Initiator(sim::Env& env, net::Link& link, Target& target,
            SessionParams params);

  /// Performs the login negotiation (2 messages).  Must be called before
  /// I/O; re-login after logout() models remounting the volume.
  void login();
  void logout();
  [[nodiscard]] SessionState state() const { return state_; }

  // --- BlockDevice ---
  [[nodiscard]] std::uint64_t block_count() const override {
    return target_.volume_blocks();
  }
  /// READ: the Data-In payload arrives as shared target-cache frames.
  void read(block::Lba lba, std::uint32_t nblocks,
            std::vector<core::BufRef>& out) override;
  /// WRITE: the target's cache adopts the frames.
  void write(block::Lba lba, std::span<const core::BufRef> blocks,
             block::WriteMode mode) override;
  void flush() override;
  /// Read-ahead: a READ whose completion nobody waits on yet.
  std::optional<sim::Time> prefetch(block::Lba lba, std::uint32_t nblocks,
                                    std::vector<core::BufRef>& out) override;

  /// Completed + in-flight SCSI command exchanges (the paper's "messages").
  [[nodiscard]] std::uint64_t exchanges() const { return exchanges_.value(); }

  /// Data bytes moved by WRITE commands, for mean-request-size reporting
  /// (the paper observed 128 KB mean write size; Section 4.5).
  [[nodiscard]] std::uint64_t write_commands() const {
    return write_commands_.value();
  }
  [[nodiscard]] std::uint64_t write_bytes() const {
    return write_bytes_.value();
  }

  /// Non-const access for MetricsRegistry adoption (src/obs).
  [[nodiscard]] sim::Counter& exchanges_counter() { return exchanges_; }
  [[nodiscard]] sim::Counter& write_commands_counter() {
    return write_commands_;
  }
  [[nodiscard]] sim::Counter& write_bytes_counter() { return write_bytes_; }

  void reset_stats();

  void set_cost_hook(InitiatorCostHook hook) { cost_hook_ = std::move(hook); }

 private:
  /// Sends one READ command sequence starting now, appending one frame
  /// per block to `out`; returns the time the final Data-In/response
  /// arrives at the client.
  sim::Time issue_read(block::Lba lba, std::uint32_t nblocks,
                       std::vector<core::BufRef>& out);

  /// Sends one WRITE command sequence starting now; returns response
  /// arrival time.  Does not block.
  sim::Time issue_write(block::Lba lba, std::span<const core::BufRef> blocks);

  sim::Env& env_;
  net::Link& link_;
  Target& target_;
  SessionParams params_;
  SessionState state_ = SessionState::kFree;
  InitiatorCostHook cost_hook_;

  // Outstanding async WRITEs' response arrival times, bounded by the
  // session's queue depth.
  sim::InFlight outstanding_;

  sim::Counter exchanges_;
  sim::Counter write_commands_;
  sim::Counter write_bytes_;
};

}  // namespace netstore::iscsi
