#include "block/timed_cache.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "obs/trace.h"

namespace netstore::block {

TimedCache::TimedCache(Raid5Array& array, std::uint64_t capacity_blocks,
                       std::uint64_t dirty_high_water)
    : array_(array),
      capacity_(capacity_blocks),
      dirty_high_water_(dirty_high_water) {
  NETSTORE_CHECK_GT(capacity_, 0u);
}

void TimedCache::insert(sim::Time start, Lba lba, core::BufRef data,
                        bool dirty) {
  while (map_.size() >= capacity_) {
    // Evict coldest clean block; write back coldest dirty if none clean.
    Entry* victim = nullptr;
    for (Entry* e = lru_.back(); e != nullptr; e = lru_.warmer(e)) {
      if (!e->dirty) {
        victim = e;
        break;
      }
    }
    if (victim == nullptr) {
      victim = lru_.back();
      array_.write(start, victim->lba, {&victim->data, 1});
      dirty_count_--;
    }
    lru_.unlink(victim);
    const Lba victim_lba = victim->lba;  // copy: erase destroys the node
    map_.erase(victim_lba);
  }
  Entry& e = map_[lba];
  e.lba = lba;
  e.data = std::move(data);  // adopts the handle: no copy, no allocation
  e.dirty = dirty;
  lru_.push_front(&e);
  if (dirty) dirty_count_++;
}

sim::Time TimedCache::read(sim::Time start, Lba lba, std::uint32_t nblocks,
                           std::vector<core::BufRef>& out) {
  sim::Time done = start;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    auto it = map_.find(lba + i);
    if (it != map_.end()) {
      hits_.add(1);
      lru_.touch(&it->second);
      out.push_back(it->second.data);
      continue;
    }
    // Coalesce the contiguous miss run into one array read.
    std::uint32_t run = 1;
    while (i + run < nblocks && !map_.contains(lba + i + run)) run++;
    misses_.add(run);
    miss_refs_.clear();
    done = std::max(done, array_.read(start, lba + i, run, miss_refs_));
    for (std::uint32_t j = 0; j < run; ++j) {
      out.push_back(miss_refs_[j]);
      insert(start, lba + i + j, std::move(miss_refs_[j]), /*dirty=*/false);
    }
    i += run - 1;
  }
  if (tracer_ != nullptr && done > start) {
    tracer_->charge(obs::Component::kMedia, done - start);
  }
  return done;
}

sim::Time TimedCache::write(sim::Time start, Lba lba,
                            std::span<const core::BufRef> blocks) {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    auto it = map_.find(lba + i);
    if (it == map_.end()) {
      insert(start, lba + i, blocks[i], /*dirty=*/true);
      continue;
    }
    // Full-block overwrite: adopt the caller's frame; the old one is
    // simply released.
    Entry& e = it->second;
    lru_.touch(&e);
    e.data = blocks[i];
    if (!e.dirty) {
      e.dirty = true;
      dirty_count_++;
    }
  }
  if (dirty_count_ > dirty_high_water_) {
    writeback_down_to(start, dirty_high_water_ / 2);
  }
  return start;  // acknowledged from cache
}

sim::Time TimedCache::writeback_down_to(sim::Time start,
                                        std::uint64_t target_dirty) {
  // Gather dirty blocks in LBA order so the array sees sequential runs.
  std::vector<Entry*> dirty;
  for (Entry* e = lru_.front(); e != nullptr; e = lru_.colder(e)) {
    if (e->dirty) dirty.push_back(e);
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const Entry* a, const Entry* b) { return a->lba < b->lba; });

  sim::Time done = start;
  std::vector<core::BufRef> refs;
  std::size_t i = 0;
  while (i < dirty.size() && dirty_count_ > target_dirty) {
    // Coalesce a contiguous run into one array write; the array adopts
    // the cached frames outright.
    std::size_t run = 1;
    while (i + run < dirty.size() &&
           dirty[i + run]->lba == dirty[i]->lba + run) {
      run++;
    }
    refs.clear();
    for (std::size_t j = 0; j < run; ++j) {
      refs.push_back(dirty[i + j]->data);
      dirty[i + j]->dirty = false;
      dirty_count_--;
    }
    done = std::max(done, array_.write(start, dirty[i]->lba, refs));
    i += run;
  }
  return done;
}

sim::Time TimedCache::sync(sim::Time start) {
  const sim::Time done = writeback_down_to(start, 0);
  // A sync is a durability barrier the caller waits out, unlike the
  // high-water destage in write() which is background work.
  if (tracer_ != nullptr && done > start) {
    tracer_->charge(obs::Component::kMedia, done - start);
  }
  return done;
}

void TimedCache::restart() {
  sync(0);
  map_.clear();
  lru_.reset();
  dirty_count_ = 0;
}

void TimedCache::crash() {
  map_.clear();
  lru_.reset();
  dirty_count_ = 0;
}

}  // namespace netstore::block
