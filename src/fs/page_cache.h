// File-data page cache with read-ahead and age/pressure-based write-back.
//
// Models the Linux 2.4 page cache + bdflush/kupdated behaviour the paper's
// iSCSI client relied on: data writes land in memory and are flushed
// asynchronously (large coalesced writes — the 128 KB mean request size of
// Table 4), while sequential reads trigger a read-ahead window.
//
// Pages remember the disk block they map to (assigned by the file system
// at insertion), so write-back needs no callback into the FS.
//
// The NFS client keeps its file pages in the same cache, built without a
// device: its writes are RPCs in flight, so none of its pages is ever
// dirty (Linux 2.4 likewise kept NFS and ext3 pages in one page cache).
//
// Hot-path layout: the LRU links live inside the map node (see
// core/intrusive_lru.h) — one allocation per page, one hash lookup per
// touch — and write-back hands the resident frames themselves to the
// device instead of staging them into a bounce buffer.  Each inode's pages
// are also linked on a list of their own, as Linux keeps a file's pages on
// its address_space, so fsync and unlink/truncate visit only that file.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "block/device.h"
#include "core/buffer_pool.h"
#include "core/intrusive_lru.h"
#include "sim/env.h"
#include "sim/func_ref.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "fs/types.h"

namespace netstore::fs {

struct PageCacheParams {
  std::uint64_t capacity_pages = 64 * 1024;      // 256 MB
  std::uint64_t dirty_high_water = 16 * 1024;    // start write-back beyond
  sim::Duration flush_interval = sim::seconds(5);   // kupdated period
  sim::Duration max_dirty_age = sim::seconds(30);   // flush pages older
};

struct PageCacheStats {
  sim::Counter hits;
  sim::Counter misses;
  sim::Counter writeback_pages;
  sim::Counter readahead_pages;
};

class PageCache {
 public:
  PageCache(sim::Env& env, block::BlockDevice& dev, PageCacheParams params);
  /// A write-through cache with no device below it, whose pages are never
  /// dirty: write_page, install_dirty, flush_inode, flush_all and clear
  /// CHECK-fail on it.
  PageCache(sim::Env& env, PageCacheParams params);

  /// Looks up (ino, page index).  On a hit returns the page's pool handle
  /// (share it to keep the frame past the next cache operation), blocking
  /// until any in-flight read-ahead for it completes.  nullptr on miss.
  const core::BufRef* find(Ino ino, std::uint64_t index);

  /// The page's pool handle, marked most recent, without counting a hit
  /// and without waiting for in-flight read-ahead: for callers that
  /// overwrite the page or never waited on it.  nullptr if absent.
  core::BufRef* page(Ino ino, std::uint64_t index);

  /// True if the page is resident or in flight (no blocking).
  [[nodiscard]] bool contains(Ino ino, std::uint64_t index) const;

  /// Calls `fn(index, data)` for each resident page of `ino`, most recently
  /// inserted first, leaving recency alone.
  void for_each_page(
      Ino ino,
      sim::FuncRef<void(std::uint64_t, const core::BufRef&)> fn) const;

  /// Inserts a clean page read from `lba`, adopting `data` (e.g. a frame
  /// straight from BlockDevice::read or the pool zero page); `ready_at`
  /// is when the data is valid (read-ahead completion time; env.now()
  /// for demand reads).  A dirty page is never clobbered.
  void insert_clean(Ino ino, std::uint64_t index, block::Lba lba,
                    core::BufRef data, sim::Time ready_at);

  /// Returns a mutable buffer for the page, marking it dirty.  The page is
  /// created zero-filled if absent.  `lba` is the disk block backing it.
  block::BlockBuf& write_page(Ino ino, std::uint64_t index, block::Lba lba);

  /// Full-block dirty install: adopts `data` as the page's new contents
  /// and marks it dirty — write_page() for payloads that already live in
  /// pooled frames (an IoVec slice covering the whole block).  Same dirty
  /// accounting, flusher scheduling, and high-water behaviour.
  void install_dirty(Ino ino, std::uint64_t index, block::Lba lba,
                     core::BufRef data);

  /// Drops all pages of `ino` at or beyond `from_index` (truncate/unlink);
  /// dirty contents are discarded.
  void drop_inode(Ino ino, std::uint64_t from_index = 0);

  /// fsync: writes `ino`'s dirty pages and blocks until durable.
  void flush_inode(Ino ino);

  /// Writes every dirty page (async).  `wait` adds a device flush barrier.
  void flush_all(bool wait);

  /// Unmount: flush and drop everything.
  void clear();

  /// Crash: dirty data is lost.
  void crash();

  [[nodiscard]] const PageCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t resident_pages() const { return pages_.size(); }
  [[nodiscard]] std::uint64_t dirty_pages() const { return dirty_count_; }
  /// Host work, not simulated behaviour: pages examined so far by
  /// write-back's victim search and by drop_inode.  Registered in no
  /// report; tests read it to pin each call's cost.
  [[nodiscard]] std::uint64_t pages_visited() const { return pages_visited_; }

 private:
  struct Key {
    Ino ino;
    std::uint64_t index;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // Full splitmix64 mix of both words.  A plain multiply-XOR left the
      // index's low bits unmixed, so consecutive pages of one inode filled
      // consecutive buckets and collided with other inodes' runs.
      return static_cast<std::size_t>(
          sim::mix64(k.ino ^ sim::mix64(k.index)));
    }
  };
  struct Page {
    Page* lru_prev = nullptr;  // intrusive LRU links (core::LruList)
    Page* lru_next = nullptr;
    Page* ino_prev = nullptr;  // links on the inode's page list
    Page* ino_next = nullptr;
    Key key{};                 // owning map key, for erase via a list walk
    core::BufRef data;         // pooled frame; may be shared with the
                               // bcache below or the disk store
    block::Lba lba = 0;
    bool dirty = false;
    sim::Time ready_at = 0;     // read-ahead completion
    sim::Time dirty_since = 0;  // first dirtying in this epoch
  };

  using InodePages = core::LruList<Page, &Page::ino_prev, &Page::ino_next>;

  Page* lookup(Ino ino, std::uint64_t index);
  Page& emplace(Ino ino, std::uint64_t index, block::Lba lba);
  /// Unlinks `p` from the LRU and from `list` (its inode's) and erases it;
  /// the caller erases an emptied list's map entry.
  void erase(Page* p, InodePages& list);
  void evict_if_needed();
  /// Writes every dirty page `pred` selects (null = all); async.
  void writeback(sim::FuncRef<bool(const Page&)> pred);
  /// Sorts `victims` by LBA and writes them, coalescing LBA-contiguous
  /// runs into one device write each; async.
  void write_victims(std::vector<Page*>& victims);
  void schedule_flusher();
  /// CHECK-fails on a cache without a device.
  void check_device() const;

  sim::Env& env_;
  block::BlockDevice* dev_;  // null: write-through, never dirty
  PageCacheParams params_;
  // Guards scheduled flusher callbacks against outliving this object
  // (remount destroys the cache while events may still be queued).
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  std::unordered_map<Key, Page, KeyHash> pages_;
  core::LruList<Page> lru_;  // front = most recent
  // One entry per inode with resident pages, erased when its list empties.
  std::unordered_map<Ino, InodePages> by_inode_;
  std::uint64_t dirty_count_ = 0;
  std::uint64_t pages_visited_ = 0;
  bool flusher_scheduled_ = false;
  bool stopped_ = false;
  PageCacheStats stats_;
};

}  // namespace netstore::fs
