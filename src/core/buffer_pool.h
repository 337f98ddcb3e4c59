// core::BufferPool — a slab-backed, refcounted copy-on-write page store
// for the 4 KB blocks that flow through the data path.
//
// Every cache layer (block::Disk, block::TimedCache, fs::Bcache,
// fs::PageCache, the NFS client page cache) holds pages as core::BufRef
// handles instead of owning unique_ptr<BlockBuf> allocations.  That buys
// two things at once:
//
//   * a page crosses layers by reference: handing a frame from the disk
//     store to a cache copies a refcounted handle, never page bytes.  A
//     shared page is un-shared lazily, on its first write.
//   * the steady state is allocation-free: frames released by cache
//     eviction or world destruction return to a free list and are
//     recycled, so warmed benches stop hitting the heap entirely.
//
// Ownership rules (DESIGN.md §14):
//
//   * BufRef::data()/view()/block() are const and never copy.
//   * BufRef::mutable_data() is the single un-share point: if the frame
//     is shared it is replaced by a private copy first (counted in
//     pool.unshare_ops).  mutable_block() is the BlockBuf-typed spelling
//     of the same operation.
//   * Full-block overwrites should not pay the un-share copy: replace
//     the handle with a fresh BufferPool::alloc() when shared()
//     (see block::Disk::write_data), then initialize every byte.
//   * alloc() frames hold indeterminate bytes — recycled frames keep
//     their previous contents.  Callers must fully initialize them.
//   * zero_page() shares one canonical all-zero frame (disk holes,
//     sparse-file reads).  The pool holds a permanent reference, so any
//     mutable_data() on it un-shares; the zero page itself is immutable.
//
// The pool is process-global: frames are storage, not simulated state.
// Worlds on bench_runner's worker threads share it (and its zero page),
// so the free list is mutex-protected and refcounts are atomic.  Nothing
// simulated depends on frame identity, only on frame contents, which
// each world owns (copy-on-write) — pooling changes time and memory,
// never behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "block/block.h"
#include "core/check.h"

namespace netstore::core {

class BufferPool;

namespace detail {
/// One pooled 4 KB frame.  Lives inside a slab owned by the pool; never
/// individually allocated or freed.
struct PoolFrame {
  block::BlockBuf data;
  std::atomic<std::uint32_t> refs{0};
  PoolFrame* next_free = nullptr;
};
}  // namespace detail

/// Refcounted handle to one pooled 4 KB frame.  Copying shares the
/// frame; mutable access un-shares it (copy-on-write).  A
/// default-constructed BufRef is null.
class BufRef {
 public:
  BufRef() = default;
  BufRef(const BufRef& other);
  BufRef(BufRef&& other) noexcept : frame_(std::exchange(other.frame_, nullptr)) {}
  BufRef& operator=(const BufRef& other);
  BufRef& operator=(BufRef&& other) noexcept;
  ~BufRef();

  [[nodiscard]] explicit operator bool() const { return frame_ != nullptr; }
  void reset();

  /// Read-only access: never copies, never un-shares.
  [[nodiscard]] const std::uint8_t* data() const;
  [[nodiscard]] const block::BlockBuf& block() const;
  [[nodiscard]] block::BlockView view() const;

  /// THE un-share point: private access to the frame bytes.  If the
  /// frame is shared, replaces it with a copy first (pool.unshare_ops).
  [[nodiscard]] std::uint8_t* mutable_data();
  [[nodiscard]] block::BlockBuf& mutable_block();
  [[nodiscard]] block::MutBlockView mutable_view();

  /// Number of handles (including this one) referencing the frame.
  [[nodiscard]] std::uint32_t use_count() const;
  [[nodiscard]] bool shared() const { return use_count() > 1; }

 private:
  friend class BufferPool;
  using Frame = detail::PoolFrame;
  explicit BufRef(Frame* frame) : frame_(frame) {}

  Frame* frame_ = nullptr;
};

class BufferPool {
 public:
  /// The process-wide pool.  Frames are storage shared by every world;
  /// see the header comment for why this does not break world isolation.
  // netstore: shard_safe -- frame storage, not simulated state: handles
  // own frames exclusively or share them copy-on-write, so worlds never
  // write the same frame; the free list is the one contended structure
  // and is mutex-protected.
  static BufferPool& instance() {
    // Leaked deliberately: BufRefs may outlive static destruction order.
    // The pool is page storage outside the simulated world; worlds own
    // frame contents via copy-on-write, so worlds stay isolated.
    // netstore-lint: allow(fork-unsafe-state)
    static BufferPool* pool = new BufferPool();
    return *pool;
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A unique frame with indeterminate contents — the caller must
  /// initialize every byte (or overwrite the handle with zero_page()).
  [[nodiscard]] BufRef alloc() { return BufRef(obtain()); }

  /// Shares the canonical all-zero frame: zero-fill without allocating
  /// or touching 4 KB.  Never mutable in place (the pool holds a ref).
  [[nodiscard]] BufRef zero_page() {
    add_ref(&zero_frame_);
    return BufRef(&zero_frame_);
  }

  // --- telemetry (exported as pool.* through the obs layer) -----------
  /// Slabs allocated (kFramesPerSlab frames each); capacity gauge.
  [[nodiscard]] std::uint64_t slabs() const {
    return slabs_count_.load(std::memory_order_relaxed);
  }
  /// Frames currently referenced by more than one handle.
  [[nodiscard]] std::uint64_t shared_pages() const {
    const std::int64_t v = shared_pages_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  }
  /// Copy-on-write copies taken by mutable access to shared frames.
  [[nodiscard]] std::uint64_t unshare_ops() const {
    return unshare_ops_.load(std::memory_order_relaxed);
  }
  /// Frame requests the free list could not satisfy (served from fresh
  /// slab capacity instead).  Flat in steady state: the delta over a
  /// warmed workload is its heap-backed allocation count.
  [[nodiscard]] std::uint64_t alloc_fallbacks() const {
    return alloc_fallbacks_.load(std::memory_order_relaxed);
  }

  // --- copy telemetry (the zero-copy data plane, DESIGN.md §17) -------
  /// Payload memcpy calls charged through the sanctioned copy helpers
  /// (core::copy_out / copy_in in core/iovec.h).
  [[nodiscard]] std::uint64_t copies() const {
    return copies_.load(std::memory_order_relaxed);
  }
  /// Bytes moved by those copies.  Every charged copy is a user-buffer
  /// boundary crossing, so bytes_copied == bytes_read + bytes_written
  /// exactly (check_report.py enforces <=).
  [[nodiscard]] std::uint64_t bytes_copied() const {
    return bytes_copied_.load(std::memory_order_relaxed);
  }
  /// Bytes handed to user read buffers at the VFS boundary.
  [[nodiscard]] std::uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  /// Bytes accepted from user write buffers at the VFS boundary.
  [[nodiscard]] std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  void note_copy(std::uint64_t n) {
    copies_.fetch_add(1, std::memory_order_relaxed);
    bytes_copied_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_user_read(std::uint64_t n) {
    bytes_read_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_user_write(std::uint64_t n) {
    bytes_written_.fetch_add(n, std::memory_order_relaxed);
  }

  /// The four copy counters read together (tests and benches take
  /// before/after deltas).
  struct CopyStats {
    std::uint64_t copies = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
  };
  [[nodiscard]] CopyStats copy_stats() const {
    return {copies(), bytes_copied(), bytes_read(), bytes_written()};
  }

  static constexpr std::size_t kFramesPerSlab = 256;

 private:
  friend class BufRef;
  using Frame = detail::PoolFrame;

  BufferPool() {
    zero_frame_.data.fill(0);
    // The pool's own pinned reference: zero_page() handles are always
    // shared, so mutable access copies-on-write instead of scribbling on
    // the canonical frame, and drop_ref can never recycle it.
    zero_frame_.refs.store(1, std::memory_order_relaxed);
  }

  Frame* obtain();
  void add_ref(Frame* f);
  void drop_ref(Frame* f);

  std::mutex mu_;
  std::vector<std::unique_ptr<Frame[]>> slabs_;  // guarded by mu_
  Frame* free_head_ = nullptr;                   // guarded by mu_
  Frame* fresh_next_ = nullptr;                  // guarded by mu_
  std::size_t fresh_left_ = 0;                   // guarded by mu_

  std::atomic<std::uint64_t> slabs_count_{0};
  std::atomic<std::int64_t> shared_pages_{0};
  std::atomic<std::uint64_t> unshare_ops_{0};
  std::atomic<std::uint64_t> alloc_fallbacks_{0};
  std::atomic<std::uint64_t> copies_{0};
  std::atomic<std::uint64_t> bytes_copied_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};

  Frame zero_frame_{};  // refs pinned at >= 1 by the pool
};

// --- BufferPool internals ----------------------------------------------

inline BufferPool::Frame* BufferPool::obtain() {
  Frame* f = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_head_ != nullptr) {
      f = free_head_;
      free_head_ = f->next_free;
      f->next_free = nullptr;
    } else {
      alloc_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      if (fresh_left_ == 0) {
        slabs_.push_back(std::make_unique<Frame[]>(kFramesPerSlab));
        slabs_count_.fetch_add(1, std::memory_order_relaxed);
        fresh_next_ = slabs_.back().get();
        fresh_left_ = kFramesPerSlab;
      }
      f = fresh_next_++;
      --fresh_left_;
    }
  }
  NETSTORE_DCHECK_EQ(f->refs.load(std::memory_order_relaxed), 0u);
  f->refs.store(1, std::memory_order_relaxed);
  return f;
}

inline void BufferPool::add_ref(Frame* f) {
  // fetch_add returns the prior count, so exactly one referencing thread
  // observes each 1 -> 2 transition (the frame becoming shared).
  if (f->refs.fetch_add(1, std::memory_order_relaxed) == 1) {
    shared_pages_.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void BufferPool::drop_ref(Frame* f) {
  const std::uint32_t prior = f->refs.fetch_sub(1, std::memory_order_acq_rel);
  NETSTORE_DCHECK_GT(prior, 0u);
  if (prior == 2) {
    shared_pages_.fetch_sub(1, std::memory_order_relaxed);
  } else if (prior == 1) {
    // Last reference gone: recycle.  The zero frame never reaches here
    // because the pool's own reference pins it above zero.
    std::lock_guard<std::mutex> lock(mu_);
    f->next_free = free_head_;
    free_head_ = f;
  }
}

// --- BufRef internals ---------------------------------------------------

inline BufRef::BufRef(const BufRef& other) : frame_(other.frame_) {
  if (frame_ != nullptr) BufferPool::instance().add_ref(frame_);
}

inline BufRef& BufRef::operator=(const BufRef& other) {
  if (this == &other) return *this;
  if (other.frame_ != nullptr) BufferPool::instance().add_ref(other.frame_);
  if (frame_ != nullptr) BufferPool::instance().drop_ref(frame_);
  frame_ = other.frame_;
  return *this;
}

inline BufRef& BufRef::operator=(BufRef&& other) noexcept {
  if (this == &other) return *this;
  if (frame_ != nullptr) BufferPool::instance().drop_ref(frame_);
  frame_ = std::exchange(other.frame_, nullptr);
  return *this;
}

inline BufRef::~BufRef() {
  if (frame_ != nullptr) BufferPool::instance().drop_ref(frame_);
}

inline void BufRef::reset() {
  if (frame_ != nullptr) BufferPool::instance().drop_ref(frame_);
  frame_ = nullptr;
}

inline const std::uint8_t* BufRef::data() const {
  NETSTORE_DCHECK(frame_ != nullptr);
  return frame_->data.data();
}

inline const block::BlockBuf& BufRef::block() const {
  NETSTORE_DCHECK(frame_ != nullptr);
  return frame_->data;
}

inline block::BlockView BufRef::view() const { return block::BlockView{block()}; }

inline std::uint8_t* BufRef::mutable_data() {
  NETSTORE_DCHECK(frame_ != nullptr);
  if (frame_->refs.load(std::memory_order_acquire) > 1) {
    BufferPool& pool = BufferPool::instance();
    Frame* fresh = pool.obtain();
    std::memcpy(fresh->data.data(), frame_->data.data(), block::kBlockSize);
    pool.unshare_ops_.fetch_add(1, std::memory_order_relaxed);
    pool.drop_ref(frame_);
    frame_ = fresh;
  }
  return frame_->data.data();
}

inline block::BlockBuf& BufRef::mutable_block() {
  return *reinterpret_cast<block::BlockBuf*>(mutable_data());
}

inline block::MutBlockView BufRef::mutable_view() {
  return block::MutBlockView{mutable_block()};
}

inline std::uint32_t BufRef::use_count() const {
  return frame_ == nullptr ? 0u
                           : frame_->refs.load(std::memory_order_relaxed);
}

}  // namespace netstore::core
