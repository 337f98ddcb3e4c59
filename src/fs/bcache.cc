#include "fs/bcache.h"

#include <vector>

#include "core/check.h"

namespace netstore::fs {

Bcache::Bcache(block::BlockDevice& dev, std::uint64_t capacity_blocks)
    : dev_(dev), capacity_(capacity_blocks) {
  NETSTORE_CHECK_GT(capacity_, 0u);
}

Bcache::Entry& Bcache::insert(block::Lba lba, bool read_from_device) {
  maybe_evict();
  Entry& e = map_[lba];
  e.lba = lba;
  // Register before the device read: the read advances the clock, which
  // may fire daemons that re-enter this cache; they must see a stable
  // map/LRU.  The entry is pinned (`loading`) until the data is in.
  lru_.push_front(&e);
  if (read_from_device) {
    e.loading = true;
    std::vector<core::BufRef> got;
    dev_.read(lba, 1, got);
    e.buf = std::move(got.front());  // adopts the device's frame
    e.loading = false;
  } else {
    e.buf = core::BufferPool::instance().alloc();
    e.buf.mutable_block().fill(0);
  }
  return e;
}

void Bcache::maybe_evict() {
  while (map_.size() >= capacity_) {
    // Evict the coldest clean block; dirty blocks are pinned, so if all
    // are dirty, checkpoint the coldest to free it.
    Entry* victim = nullptr;
    for (Entry* e = lru_.back(); e != nullptr; e = lru_.warmer(e)) {
      if (!e->dirty && !e->loading) {
        victim = e;
        break;
      }
    }
    if (victim == nullptr) {
      victim = lru_.back();
      if (victim->loading) return;  // everything pinned; grow past capacity
      const block::Lba lba = victim->lba;
      // The device write may advance the clock and re-enter this cache;
      // re-find the victim afterwards in case that activity evicted it.
      checkpoint(lba, block::WriteMode::kAsync);
      auto it = map_.find(lba);
      if (it == map_.end()) continue;
      victim = &it->second;
    }
    lru_.unlink(victim);
    const block::Lba lba = victim->lba;  // copy: erase destroys the node
    map_.erase(lba);
  }
}

block::BlockBuf& Bcache::get(block::Lba lba) {
  auto it = map_.find(lba);
  if (it != map_.end()) {
    NETSTORE_CHECK(!it->second.loading, "re-entrant get of a loading block");
    hits_.add(1);
    lru_.touch(&it->second);
    return it->second.buf.mutable_block();
  }
  misses_.add(1);
  return insert(lba, /*read_from_device=*/true).buf.mutable_block();
}

block::BlockBuf& Bcache::refetch(block::Lba lba) {
  auto it = map_.find(lba);
  if (it == map_.end()) return get(lba);
  NETSTORE_CHECK(!it->second.loading, "re-entrant get of a loading block");
  return it->second.buf.mutable_block();
}

core::BufRef Bcache::get_ref(block::Lba lba) {
  auto it = map_.find(lba);
  if (it != map_.end()) {
    NETSTORE_CHECK(!it->second.loading, "re-entrant get of a loading block");
    hits_.add(1);
    lru_.touch(&it->second);
    return it->second.buf;
  }
  misses_.add(1);
  return insert(lba, /*read_from_device=*/true).buf;
}

block::BlockBuf& Bcache::get_new(block::Lba lba) {
  auto it = map_.find(lba);
  if (it != map_.end()) {
    NETSTORE_CHECK(!it->second.loading, "re-entrant get of a loading block");
    lru_.touch(&it->second);
    Entry& e = it->second;
    // Full overwrite: replace a shared frame instead of copying it.
    if (e.buf.shared()) e.buf = core::BufferPool::instance().alloc();
    // The frame was un-shared on the line above and the reference is
    // consumed by the caller's overwrite before any handle operation.
    // netstore-lint: allow(bufref-held)
    block::BlockBuf& buf = e.buf.mutable_block();
    buf.fill(0);
    return buf;
  }
  return insert(lba, /*read_from_device=*/false).buf.mutable_block();
}

void Bcache::mark_dirty(block::Lba lba) {
  auto it = map_.find(lba);
  NETSTORE_CHECK(it != map_.end(), "mark_dirty of a block not in cache");
  if (!it->second.dirty) {
    it->second.dirty = true;
    dirty_count_++;
  }
}

bool Bcache::is_dirty(block::Lba lba) const {
  auto it = map_.find(lba);
  return it != map_.end() && it->second.dirty;
}

void Bcache::checkpoint(block::Lba lba, block::WriteMode mode) {
  auto it = map_.find(lba);
  if (it == map_.end() || !it->second.dirty) return;
  Entry& e = it->second;
  // The device shares the frame; the next get() un-shares it.
  dev_.write(lba, {&e.buf, 1}, mode);
  e.dirty = false;
  dirty_count_--;
}

void Bcache::note_checkpointed(block::Lba lba) {
  auto it = map_.find(lba);
  if (it == map_.end() || !it->second.dirty) return;
  it->second.dirty = false;
  dirty_count_--;
}

void Bcache::drop_clean_all() {
  NETSTORE_CHECK_EQ(dirty_count_, 0u, "dropping cache with dirty blocks");
  map_.clear();
  lru_.reset();
}

void Bcache::crash() {
  map_.clear();
  lru_.reset();
  dirty_count_ = 0;
}

}  // namespace netstore::fs
