// Metadata buffer cache (Linux 2.4 buffer-cache analogue).
//
// Every metadata block the file system touches — inode-table blocks,
// directory blocks, bitmaps, indirect blocks — flows through this cache.
// This is the "aggressive meta-data caching" half of the paper's
// explanation for iSCSI's meta-data win: once a 4 KB block of inodes or
// directory entries is resident, later operations with locality cost no
// network messages at all.
//
// Dirty blocks are pinned by the journal (they may not be dropped until
// checkpointed); clean blocks are evictable LRU.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "block/device.h"
#include "core/buffer_pool.h"
#include "core/intrusive_lru.h"
#include "sim/stats.h"

namespace netstore::fs {

class Bcache {
 public:
  Bcache(block::BlockDevice& dev, std::uint64_t capacity_blocks);

  /// Returns the buffer for `lba`, reading it from the device on a miss
  /// (blocking).  Mutable access: a block still shared with the device is
  /// un-shared here.  The reference is valid until the next Bcache call,
  /// and that includes calls made for the caller: a journal commit or
  /// checkpoint (any dirty_metadata(), any miss that advances the clock)
  /// hands this frame to the device, and a write through a reference held
  /// across it lands in the device's copy.  Write after such a call
  /// through refetch().
  block::BlockBuf& get(block::Lba lba);

  /// Mutable access again to a block the caller fetched with get() in
  /// the same operation, after a call that may have handed its frame to
  /// the device: un-shares it, counts nothing and leaves recency alone
  /// (the get() did both).  A block evicted in between is read back, and
  /// counted, as by get().
  block::BlockBuf& refetch(block::Lba lba);

  /// Shared read-only handle to the block — the zero-copy read used by
  /// journal staging.  Counter and recency behaviour is identical to
  /// get() (one hit or miss, one LRU touch), so swapping get() for
  /// get_ref() never perturbs metric snapshots.  The handle is a
  /// snapshot: later get() mutations un-share away from it.
  [[nodiscard]] core::BufRef get_ref(block::Lba lba);

  /// Returns a zeroed buffer for `lba` *without* reading the device — for
  /// freshly allocated blocks the caller fully initializes.
  block::BlockBuf& get_new(block::Lba lba);

  /// Marks `lba` dirty and pins it (journal will checkpoint it later).
  void mark_dirty(block::Lba lba);

  [[nodiscard]] bool is_dirty(block::Lba lba) const;

  /// Writes a dirty block in place on the device and clears its dirty bit.
  /// `mode` is forwarded to the device.  No-op for clean/absent blocks.
  void checkpoint(block::Lba lba, block::WriteMode mode);

  /// Clears the dirty bit without writing — used by the journal when it
  /// has written the block itself as part of a coalesced checkpoint run.
  void note_checkpointed(block::Lba lba);

  /// Drops every block; asserts none dirty (call after checkpointing).
  void drop_clean_all();

  /// Crash: drops everything including dirty blocks (data loss).
  void crash();

  [[nodiscard]] const sim::Counter& hits() const { return hits_; }
  [[nodiscard]] const sim::Counter& misses() const { return misses_; }

 private:
  struct Entry {
    Entry* lru_prev = nullptr;  // intrusive LRU links (core::LruList)
    Entry* lru_next = nullptr;
    block::Lba lba = 0;
    core::BufRef buf;  // pooled frame, shared with the device until written
    bool dirty = false;
    // Set while the buffer is being filled from the device.  The device
    // read advances the virtual clock, which can fire the journal-commit
    // daemon and re-enter this cache; a loading entry must not be evicted
    // under the foot of its in-flight insert().  Its frame arrives only
    // when the read returns, so a re-entrant lookup of the same block is
    // a CHECK failure rather than a read of a missing frame.
    bool loading = false;
  };

  Entry& insert(block::Lba lba, bool read_from_device);
  void maybe_evict();

  block::BlockDevice& dev_;
  std::uint64_t capacity_;
  // LRU links live inside the map nodes (address-stable): one allocation
  // per entry, one hash lookup per touch, references stable across
  // re-entrant inserts exactly as with the old iterator-list design.
  std::unordered_map<block::Lba, Entry> map_;
  core::LruList<Entry> lru_;  // front = most recently used
  std::uint64_t dirty_count_ = 0;
  sim::Counter hits_;
  sim::Counter misses_;
};

}  // namespace netstore::fs
