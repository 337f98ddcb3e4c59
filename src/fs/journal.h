// JBD-style metadata journal.
//
// This is the "update aggregation" half of the paper's explanation for
// iSCSI's meta-data win (§2.3, §4.2): metadata mutations join a running
// transaction and become durable at *commit points* (default every 5 s,
// ext3's commit interval).  A block dirtied many times within a window is
// written once; the commit itself is a small number of large sequential
// writes to the journal region (descriptor + logged blocks, then a commit
// record), which the initiator carries as ~2 network messages.
//
// The trade-off the paper calls out — lower persistence than NFS's
// synchronous meta-data updates — is real here: a crash before commit
// loses the running transaction (tested in the failure-injection suite).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "block/device.h"
#include "fs/bcache.h"
#include "fs/layout.h"
#include "sim/env.h"
#include "sim/stats.h"

namespace netstore::fs {

struct JournalStats {
  sim::Counter commits;
  sim::Counter blocks_logged;
  sim::Counter checkpoint_writes;  // in-place block writes
  sim::Counter transactions_replayed;
};

class Journal {
 public:
  /// `interval` is the commit interval (ext3 default 5 s).
  Journal(sim::Env& env, block::BlockDevice& dev, Bcache& bcache,
          SuperBlock& sb, sim::Duration interval);

  /// Adds a metadata block to the running transaction.  The block must be
  /// resident in the bcache with its new contents.  Schedules a commit
  /// `interval` from now if none is pending.
  void dirty_metadata(block::Lba lba);

  /// Revokes a freed metadata block (JBD "forget"): it leaves the running
  /// transaction and the checkpoint list, and a revoke record in the next
  /// commit prevents replay from resurrecting its stale journal copies
  /// over whatever the block is reallocated for.
  void forget_metadata(block::Lba lba);

  /// Commits the running transaction now.  If `wait`, blocks until the
  /// journal writes are durable at the device (fsync semantics).
  void commit(bool wait);

  /// Commit + checkpoint everything + superblock update.  Used by
  /// unmount and sync(2).
  void sync();

  /// Crash recovery: scans the journal region and re-applies every fully
  /// committed transaction in sequence order.  Called on mount before any
  /// other access; operates directly on the device (the cache is cold).
  /// Returns the number of transactions replayed.
  static std::uint64_t replay(block::BlockDevice& dev, SuperBlock& sb);

  [[nodiscard]] const JournalStats& stats() const { return stats_; }
  [[nodiscard]] bool transaction_open() const { return !running_.empty(); }
  [[nodiscard]] std::size_t running_size() const { return running_.size(); }

  /// Stops scheduling further timed commits (unmount).
  void stop() { stopped_ = true; }

  /// Enables runtime invariant audits: every commit verifies sequence
  /// monotonicity and that the live journal region never outgrows the
  /// on-disk journal.  Off by default; testbeds enable it stack-wide.
  void set_audit(bool on) { audit_ = on; }

 private:
  /// Writes every checkpoint-pending block in place (coalesced into
  /// sequential runs) and resets the journal tail.
  void checkpoint_all();

  /// Appends whole blocks at the journal head, splitting at the wrap
  /// boundary; advances the live region.  The blocks are pooled frames
  /// (bcache handles and encoded record blocks) that the device shares —
  /// no staging copy.
  void write_journal(std::span<const core::BufRef> blocks);

  [[nodiscard]] std::uint32_t journal_free_blocks() const;
  void write_superblock();

  sim::Env& env_;
  block::BlockDevice& dev_;
  Bcache& bcache_;
  SuperBlock& sb_;
  sim::Duration interval_;
  // Guards the scheduled commit callback against outliving this object.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);

  std::vector<block::Lba> running_;  // insertion-ordered, deduplicated
  std::vector<block::Lba> checkpoint_pending_;
  std::vector<block::Lba> revoked_pending_;  // revokes for the next commit
  std::uint64_t next_sequence_ = 1;  // sequence the next commit will use
  std::uint32_t live_blocks_ = 0;    // journal blocks between tail and head
  bool commit_scheduled_ = false;
  bool stopped_ = false;
  bool audit_ = false;
  std::uint64_t last_commit_sequence_ = 0;  // audit: last sequence committed
  JournalStats stats_;
};

}  // namespace netstore::fs
