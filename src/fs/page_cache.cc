#include "fs/page_cache.h"

#include <algorithm>

#include "core/check.h"

namespace netstore::fs {

PageCache::PageCache(sim::Env& env, block::BlockDevice& dev,
                     PageCacheParams params)
    : env_(env), dev_(dev), params_(params) {}

PageCache::Page* PageCache::lookup(Ino ino, std::uint64_t index) {
  auto it = pages_.find(Key{ino, index});
  if (it == pages_.end()) return nullptr;
  lru_.touch(&it->second);
  return &it->second;
}

PageCache::Page& PageCache::emplace(Ino ino, std::uint64_t index,
                                    block::Lba lba) {
  evict_if_needed();
  const Key key{ino, index};
  Page& p = pages_[key];
  p.key = key;
  // p.data stays null: every caller assigns a frame (adopted or
  // zero-filled) before the page is observable.
  p.lba = lba;
  lru_.push_front(&p);
  by_inode_[ino].push_front(&p);
  return p;
}

void PageCache::erase(Page* p, InodePages& list) {
  if (p->dirty) dirty_count_--;
  lru_.unlink(p);
  list.unlink(p);
  const Key key = p->key;  // copy: erase destroys the node
  pages_.erase(key);
}

void PageCache::evict_if_needed() {
  while (pages_.size() >= params_.capacity_pages) {
    // Coldest clean page goes first; if everything is dirty, write back
    // the aged pages and retry.
    Page* victim = nullptr;
    for (Page* p = lru_.back(); p != nullptr; p = lru_.warmer(p)) {
      if (!p->dirty) {
        victim = p;
        break;
      }
    }
    if (victim != nullptr) {
      auto it = by_inode_.find(victim->key.ino);
      erase(victim, it->second);
      if (it->second.empty()) by_inode_.erase(it);
    } else {
      writeback(nullptr);  // everything; then the loop evicts clean pages
    }
  }
}

const core::BufRef* PageCache::find(Ino ino, std::uint64_t index) {
  Page* p = lookup(ino, index);
  if (!p) {
    stats_.misses.add(1);
    return nullptr;
  }
  stats_.hits.add(1);
  if (p->ready_at > env_.now()) env_.advance_to(p->ready_at);
  return &p->data;
}

bool PageCache::contains(Ino ino, std::uint64_t index) const {
  return pages_.contains(Key{ino, index});
}

void PageCache::insert_clean(Ino ino, std::uint64_t index, block::Lba lba,
                             core::BufRef data, sim::Time ready_at) {
  Page* existing = lookup(ino, index);
  Page& p = existing ? *existing : emplace(ino, index, lba);
  if (p.dirty) return;  // never clobber dirty data with a stale read
  p.data = std::move(data);  // adopts the handle: no copy, no allocation
  p.lba = lba;
  p.ready_at = ready_at;
  if (ready_at > env_.now()) stats_.readahead_pages.add(1);
}

block::BlockBuf& PageCache::write_page(Ino ino, std::uint64_t index,
                                       block::Lba lba) {
  Page* existing = lookup(ino, index);
  Page& p = existing ? *existing : emplace(ino, index, lba);
  if (!p.data) {
    // Fresh page: zero-filled, so a partial write leaves zeros elsewhere.
    p.data = core::BufferPool::instance().alloc();
    p.data.mutable_block().fill(0);
  }
  if (p.ready_at > env_.now()) env_.advance_to(p.ready_at);
  p.lba = lba;
  if (!p.dirty) {
    p.dirty = true;
    p.dirty_since = env_.now();
    dirty_count_++;
  }
  schedule_flusher();
  if (dirty_count_ > params_.dirty_high_water) {
    // bdflush: over the high-water mark, push everything dirty out (the
    // writes are asynchronous; only the initiator queue throttles us).
    writeback(nullptr);
  }
  return p.data.mutable_block();
}

void PageCache::install_dirty(Ino ino, std::uint64_t index, block::Lba lba,
                              core::BufRef data) {
  // A full-block payload that already lives in a pooled frame replaces
  // the page's frame outright — no zero-fill, no byte copy.
  Page* existing = lookup(ino, index);
  Page& p = existing ? *existing : emplace(ino, index, lba);
  if (p.ready_at > env_.now()) env_.advance_to(p.ready_at);
  p.data = std::move(data);
  p.lba = lba;
  if (!p.dirty) {
    p.dirty = true;
    p.dirty_since = env_.now();
    dirty_count_++;
  }
  schedule_flusher();
  if (dirty_count_ > params_.dirty_high_water) {
    writeback(nullptr);
  }
}

void PageCache::writeback(sim::FuncRef<bool(const Page&)> pred) {
  // Locals, not members: an async device write may advance the clock and
  // dispatch a flusher tick that re-enters writeback.
  std::vector<Page*> victims;
  pages_visited_ += pages_.size();
  // netstore-lint: allow(unordered-iter) -- victims are sorted by LBA below
  for (auto& [key, page] : pages_) {
    if (page.dirty && (!pred || pred(page))) victims.push_back(&page);
  }
  write_victims(victims);
}

void PageCache::write_victims(std::vector<Page*>& victims) {
  // Sort by LBA and coalesce contiguous runs into large device writes
  // (this is where iSCSI's big write requests come from).  Dirty pages
  // have distinct LBAs, so the requests do not depend on the order the
  // victims were collected in.
  std::sort(victims.begin(), victims.end(),
            [](const Page* a, const Page* b) { return a->lba < b->lba; });

  std::vector<core::BufRef> refs;
  std::size_t i = 0;
  while (i < victims.size()) {
    std::size_t run = 1;
    while (i + run < victims.size() &&
           victims[i + run]->lba == victims[i]->lba + run) {
      run++;
    }
    // Hand the resident frames to the device as one coalesced request;
    // devices that store blocks share them instead of copying bytes.
    refs.clear();
    for (std::size_t j = 0; j < run; ++j) {
      refs.push_back(victims[i + j]->data);  // shares the frame
      victims[i + j]->dirty = false;
      dirty_count_--;
    }
    dev_.write(victims[i]->lba, refs, block::WriteMode::kAsync);
    stats_.writeback_pages.add(run);
    i += run;
  }
}

void PageCache::schedule_flusher() {
  if (flusher_scheduled_ || stopped_) return;
  flusher_scheduled_ = true;
  env_.schedule_after(params_.flush_interval,
                      [this, alive = std::weak_ptr<int>(alive_)] {
    if (alive.expired()) return;
    flusher_scheduled_ = false;
    if (stopped_) return;
    const sim::Time now = env_.now();
    writeback([&](const Page& p) {
      return now - p.dirty_since >= params_.max_dirty_age;
    });
    if (dirty_count_ > 0) schedule_flusher();
  });
}

void PageCache::drop_inode(Ino ino, std::uint64_t from_index) {
  auto it = by_inode_.find(ino);
  if (it == by_inode_.end()) return;
  InodePages& list = it->second;
  for (Page* p = list.front(); p != nullptr;) {
    Page* next = InodePages::colder(p);
    pages_visited_++;
    if (p->key.index >= from_index) erase(p, list);
    p = next;
  }
  if (list.empty()) by_inode_.erase(it);
}

void PageCache::flush_inode(Ino ino) {
  std::vector<Page*> victims;
  if (auto it = by_inode_.find(ino); it != by_inode_.end()) {
    for (Page* p = it->second.front(); p != nullptr;
         p = InodePages::colder(p)) {
      pages_visited_++;
      if (p->dirty) victims.push_back(p);
    }
  }
  write_victims(victims);
  dev_.flush();
}

void PageCache::flush_all(bool wait) {
  writeback(nullptr);
  if (wait) dev_.flush();
}

void PageCache::clear() {
  stopped_ = true;
  flush_all(true);
  pages_.clear();
  lru_.reset();
  by_inode_.clear();
  dirty_count_ = 0;
  stopped_ = false;
}

void PageCache::crash() {
  stopped_ = true;
  pages_.clear();
  lru_.reset();
  by_inode_.clear();
  dirty_count_ = 0;
  stopped_ = false;
}

}  // namespace netstore::fs
