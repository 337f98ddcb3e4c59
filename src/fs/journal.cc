#include "fs/journal.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/buffer_pool.h"
#include "core/check.h"

namespace netstore::fs {

Journal::Journal(sim::Env& env, block::BlockDevice& dev, Bcache& bcache,
                 SuperBlock& sb, sim::Duration interval)
    : env_(env),
      dev_(dev),
      bcache_(bcache),
      sb_(sb),
      interval_(interval),
      next_sequence_(sb.journal_sequence) {}

void Journal::dirty_metadata(block::Lba lba) {
  bcache_.mark_dirty(lba);
  if (std::find(running_.begin(), running_.end(), lba) == running_.end()) {
    running_.push_back(lba);
  }
  // Never let the running transaction outgrow half the journal.
  if (running_.size() >= sb_.journal_blocks / 2) {
    commit(false);
    return;
  }
  if (!commit_scheduled_ && !stopped_) {
    commit_scheduled_ = true;
    env_.schedule_after(interval_,
                        [this, alive = std::weak_ptr<int>(alive_)] {
      if (alive.expired()) return;
      commit_scheduled_ = false;
      if (!stopped_) commit(false);
    });
  }
}

void Journal::forget_metadata(block::Lba lba) {
  running_.erase(std::remove(running_.begin(), running_.end(), lba),
                 running_.end());
  checkpoint_pending_.erase(
      std::remove(checkpoint_pending_.begin(), checkpoint_pending_.end(), lba),
      checkpoint_pending_.end());
  bcache_.note_checkpointed(lba);  // stale contents must not hit the disk
  if (std::find(revoked_pending_.begin(), revoked_pending_.end(), lba) ==
      revoked_pending_.end()) {
    revoked_pending_.push_back(lba);
  }
  // Even an otherwise-empty transaction must commit to persist the revoke.
  if (!commit_scheduled_ && !stopped_) {
    commit_scheduled_ = true;
    env_.schedule_after(interval_,
                        [this, alive = std::weak_ptr<int>(alive_)] {
      if (alive.expired()) return;
      commit_scheduled_ = false;
      if (!stopped_) commit(false);
    });
  }
}

std::uint32_t Journal::journal_free_blocks() const {
  const std::uint32_t head =
      static_cast<std::uint32_t>((sb_.journal_tail + live_blocks_) %
                                 sb_.journal_blocks);
  (void)head;
  return sb_.journal_blocks - live_blocks_;
}

void Journal::commit(bool wait) {
  if (running_.empty() && revoked_pending_.empty()) {
    if (wait) dev_.flush();
    return;
  }

  const auto count = static_cast<std::uint32_t>(running_.size());
  // Descriptor blocks (one per kMaxTags logged blocks) + data + revoke
  // blocks + one commit block.
  const std::uint32_t ndesc =
      count == 0 ? 0
                 : (count + JournalDescriptor::kMaxTags - 1) /
                       JournalDescriptor::kMaxTags;
  const auto nrevoke = static_cast<std::uint32_t>(
      (revoked_pending_.size() + JournalRevoke::kMaxTags - 1) /
      JournalRevoke::kMaxTags);
  const std::uint32_t needed = ndesc + count + nrevoke + 1;
  if (needed > journal_free_blocks()) checkpoint_all();
  NETSTORE_CHECK_LE(needed, journal_free_blocks(), "journal too small");

  // Gather descriptor(s) + logged block images as one run of frames; on
  // the wire this is still a small number of large sequential writes —
  // the aggregation the paper measures.  Logged blocks are shared bcache
  // handles (get_ref), not copies: the refs pin each block's contents as
  // of this commit, so a later mutation un-shares away from the staged
  // image instead of corrupting it.
  std::vector<core::BufRef> refs;
  refs.reserve(ndesc + count + nrevoke);
  std::uint32_t tagged = 0;
  while (tagged < count) {
    const std::uint32_t batch =
        std::min(count - tagged, JournalDescriptor::kMaxTags);
    JournalDescriptor desc{.sequence = next_sequence_, .count = batch};
    core::BufRef desc_buf = core::BufferPool::instance().alloc();
    desc.encode(desc_buf.mutable_view(), running_.data() + tagged);
    refs.push_back(std::move(desc_buf));
    for (std::uint32_t i = 0; i < batch; ++i) {
      refs.push_back(bcache_.get_ref(running_[tagged + i]));
    }
    tagged += batch;
  }
  stats_.blocks_logged.add(count);

  // Revoke records ride in the same sequential burst.
  std::size_t revoked = 0;
  while (revoked < revoked_pending_.size()) {
    const auto batch = static_cast<std::uint32_t>(
        std::min<std::size_t>(JournalRevoke::kMaxTags,
                              revoked_pending_.size() - revoked));
    JournalRevoke rev{.sequence = next_sequence_, .count = batch};
    core::BufRef rev_buf = core::BufferPool::instance().alloc();
    rev.encode(rev_buf.mutable_view(), revoked_pending_.data() + revoked);
    refs.push_back(std::move(rev_buf));
    revoked += batch;
  }
  revoked_pending_.clear();

  write_journal(refs);

  // Commit record, as its own write (ext3 orders it after the data).
  core::BufRef commit_buf = core::BufferPool::instance().alloc();
  JournalCommit{.sequence = next_sequence_}.encode(commit_buf.mutable_view());
  write_journal({&commit_buf, 1});

  if (audit_) {
    // Commit-ordering invariants: sequences leave this journal strictly
    // increasing (replay depends on it to find the chain head), and the
    // live region — including the records just appended — still fits.
    NETSTORE_CHECK_GT(next_sequence_, last_commit_sequence_,
                      "journal commit sequence regressed");
    NETSTORE_CHECK_GE(next_sequence_, sb_.journal_sequence,
                      "committed behind the checkpointed sequence");
    NETSTORE_CHECK_LE(live_blocks_, sb_.journal_blocks,
                      "live journal region overflowed the journal");
    last_commit_sequence_ = next_sequence_;
  }
  next_sequence_++;
  stats_.commits.add(1);

  // Logged blocks await checkpointing (in-place write) later.
  for (block::Lba lba : running_) {
    if (std::find(checkpoint_pending_.begin(), checkpoint_pending_.end(),
                  lba) == checkpoint_pending_.end()) {
      checkpoint_pending_.push_back(lba);
    }
  }
  running_.clear();

  if (wait) dev_.flush();
}

void Journal::write_journal(std::span<const core::BufRef> blocks) {
  const auto nblocks = static_cast<std::uint32_t>(blocks.size());
  std::uint32_t written = 0;
  while (written < nblocks) {
    const std::uint32_t head =
        (sb_.journal_tail + live_blocks_) % sb_.journal_blocks;
    const std::uint32_t until_wrap = sb_.journal_blocks - head;
    const std::uint32_t chunk = std::min(nblocks - written, until_wrap);
    dev_.write(sb_.journal_start + head, blocks.subspan(written, chunk),
               block::WriteMode::kAsync);
    live_blocks_ += chunk;
    written += chunk;
  }
}

void Journal::checkpoint_all() {
  // In-place writes, coalesced into LBA-sorted sequential runs.
  std::sort(checkpoint_pending_.begin(), checkpoint_pending_.end());
  checkpoint_pending_.erase(
      std::unique(checkpoint_pending_.begin(), checkpoint_pending_.end()),
      checkpoint_pending_.end());

  std::size_t i = 0;
  while (i < checkpoint_pending_.size()) {
    if (!bcache_.is_dirty(checkpoint_pending_[i])) {
      // Already written in place (e.g. by cache-pressure eviction).
      ++i;
      continue;
    }
    std::size_t run = 1;
    while (i + run < checkpoint_pending_.size() &&
           checkpoint_pending_[i + run] == checkpoint_pending_[i] + run &&
           bcache_.is_dirty(checkpoint_pending_[i + run])) {
      run++;
    }
    // Shared handles instead of a staging copy: one get_ref per block
    // (same hit accounting as get()), handed to the device as one write.
    std::vector<core::BufRef> refs;
    refs.reserve(run);
    for (std::size_t j = 0; j < run; ++j) {
      refs.push_back(bcache_.get_ref(checkpoint_pending_[i + j]));
    }
    dev_.write(checkpoint_pending_[i], refs, block::WriteMode::kAsync);
    for (std::size_t j = 0; j < run; ++j) {
      bcache_.note_checkpointed(checkpoint_pending_[i + j]);
    }
    stats_.checkpoint_writes.add(run);
    i += run;
  }
  checkpoint_pending_.clear();

  // The whole journal is dead space now.
  sb_.journal_tail = (sb_.journal_tail + live_blocks_) % sb_.journal_blocks;
  sb_.journal_sequence = next_sequence_;
  live_blocks_ = 0;
  write_superblock();
}

void Journal::write_superblock() {
  const core::BufRef frame = sb_.encode_frame();
  dev_.write(0, {&frame, 1}, block::WriteMode::kAsync);
}

void Journal::sync() {
  commit(false);
  checkpoint_all();
  dev_.flush();
}

std::uint64_t Journal::replay(block::BlockDevice& dev, SuperBlock& sb) {
  std::vector<std::uint64_t> lbas(JournalDescriptor::kMaxTags);

  // Reads one journal block as a shared frame.
  std::vector<core::BufRef> got;
  auto read_journal_block = [&](std::uint32_t offset) {
    got.clear();
    dev.read(sb.journal_start + (offset % sb.journal_blocks), 1, got);
    return std::move(got.front());
  };

  struct Apply {
    block::Lba lba;
    std::uint64_t sequence;
    core::BufRef data;
  };

  // Walk the committed transaction chain once, gathering both block
  // images and revoke records; a revoke in transaction N suppresses
  // replay of that block from any transaction with sequence <= N.
  std::vector<Apply> applies;
  std::unordered_map<block::Lba, std::uint64_t> revoked;  // lba -> max seq
  std::uint64_t replayed = 0;
  std::uint64_t expected = sb.journal_sequence;
  std::uint32_t pos = sb.journal_tail;

  for (;;) {
    // One iteration per transaction: walk descriptor/revoke blocks until
    // the commit record (or a torn end).
    std::vector<Apply> txn;
    std::vector<std::pair<block::Lba, std::uint64_t>> txn_revokes;
    std::uint32_t scan = pos;
    bool committed = false;
    bool saw_any = false;
    for (;;) {
      const core::BufRef rec = read_journal_block(scan);
      JournalDescriptor desc;
      JournalRevoke rev;
      JournalCommit commit;
      if (JournalDescriptor::decode(rec.view(), desc, lbas.data()) &&
          desc.sequence == expected) {
        saw_any = true;
        const std::uint32_t count = desc.count;
        std::vector<std::uint64_t> tags(lbas.begin(), lbas.begin() + count);
        for (std::uint32_t i = 0; i < count; ++i) {
          scan++;
          txn.push_back(Apply{tags[i], expected, read_journal_block(scan)});
        }
        scan++;
      } else if (JournalRevoke::decode(rec.view(), rev, lbas.data()) &&
                 rev.sequence == expected) {
        saw_any = true;
        for (std::uint32_t i = 0; i < rev.count; ++i) {
          txn_revokes.emplace_back(lbas[i], expected);
        }
        scan++;
      } else if (saw_any && JournalCommit::decode(rec.view(), commit) &&
                 commit.sequence == expected) {
        committed = true;
        scan++;
        break;
      } else {
        break;  // torn transaction or end of chain
      }
    }
    if (!committed) break;
    for (auto& a : txn) applies.push_back(std::move(a));
    for (auto& [lba, seq] : txn_revokes) {
      auto it = revoked.find(lba);
      if (it == revoked.end() || it->second < seq) revoked[lba] = seq;
    }
    replayed++;
    expected++;
    pos = scan % sb.journal_blocks;
  }

  // Apply in order, honoring revocations.  Later copies of the same block
  // overwrite earlier ones naturally.
  bool wrote = false;
  std::uint64_t prev_sequence = 0;
  for (const Apply& a : applies) {
    // Replay must apply transactions in commit order, or a block logged in
    // two transactions could resurrect its older image.
    NETSTORE_DCHECK_GE(a.sequence, prev_sequence,
                       "journal replay applied transactions out of order");
    prev_sequence = a.sequence;
    auto it = revoked.find(a.lba);
    if (it != revoked.end() && a.sequence <= it->second) continue;
    dev.write(a.lba, {&a.data, 1}, block::WriteMode::kAsync);
    wrote = true;
  }
  if (wrote) dev.flush();
  sb.journal_tail = pos;
  sb.journal_sequence = expected;
  return replayed;
}

}  // namespace netstore::fs
