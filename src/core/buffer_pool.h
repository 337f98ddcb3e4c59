// core::BufferPool — a slab-backed, refcounted copy-on-write page store
// for the 4 KB blocks that flow through the data path.
//
// Every store and cache layer (block::Raid5Array, block::TimedCache,
// fs::Bcache, and fs::PageCache, which serves ext3 and the NFS client)
// holds pages as core::BufRef handles instead of owning
// unique_ptr<BlockBuf> allocations.  That buys two things at once:
//
//   * a page crosses layers by reference: handing a frame from the array
//     store to a cache copies a refcounted handle, never page bytes.  A
//     shared page is un-shared lazily, on its first write.
//   * the steady state is allocation-free: frames released by cache
//     eviction or world destruction return to a free list and are
//     recycled, so warmed benches stop hitting the heap entirely.
//   * placement does not drift: once the last frame is released (every
//     world gone), the pool forgets its free list and hands frames out
//     in address order again, so each world built afterwards gets the
//     same frames as the first one did.
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
//     (see fs::Bcache::get_new), then initialize every byte.
//   * alloc() frames hold indeterminate bytes — recycled frames keep
//     their previous contents.  Callers must fully initialize them.
//   * zero_page() shares one canonical all-zero frame (disk holes,
//     sparse-file reads).  The pool holds a permanent reference, so any
//     mutable_data() on it un-shares; the zero page itself is immutable.
//
// The pool is process-global: frames are storage, not simulated state.
// Every world a process builds shares it (and its zero page).  Nothing
// simulated depends on frame identity, only on frame contents, which
// each world owns (copy-on-write) — pooling changes time and memory,
// never behaviour.  A process runs one thread, so the free list takes no
// lock and refcounts and counters are plain integers; parallel runs are
// separate processes, each with its own pool.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
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
  std::uint32_t refs = 0;
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
  static BufferPool& instance() {
    // Leaked deliberately: BufRefs may outlive static destruction order.
    // The pool is page storage outside the simulated world; worlds own
    // frame contents via copy-on-write, so worlds stay isolated.
    // netstore-lint: allow(process-state)
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
  [[nodiscard]] std::uint64_t slabs() const { return slabs_.size(); }
  /// Frames currently referenced by more than one handle.
  [[nodiscard]] std::uint64_t shared_pages() const { return shared_pages_; }
  /// Copy-on-write copies taken by mutable access to shared frames.
  [[nodiscard]] std::uint64_t unshare_ops() const { return unshare_ops_; }
  /// Frame requests that needed a frame never handed out before (new
  /// slab capacity).  Flat in steady state: the delta over a warmed
  /// workload is its heap-backed allocation count.
  [[nodiscard]] std::uint64_t alloc_fallbacks() const {
    return alloc_fallbacks_;
  }

  // --- copy telemetry (the zero-copy data plane, DESIGN.md §17) -------
  /// Payload memcpy calls charged through the sanctioned copy helpers
  /// (core::copy_out / copy_in in core/iovec.h).
  [[nodiscard]] std::uint64_t copies() const { return copies_; }
  /// Bytes moved by those copies.  Every charged copy is a user-buffer
  /// boundary crossing, so bytes_copied == bytes_read + bytes_written
  /// exactly (check_report.py enforces <=).
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }
  /// Bytes handed to user read buffers at the VFS boundary.
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  /// Bytes accepted from user write buffers at the VFS boundary.
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

  void note_copy(std::uint64_t n) {
    ++copies_;
    bytes_copied_ += n;
  }
  void note_user_read(std::uint64_t n) { bytes_read_ += n; }
  void note_user_write(std::uint64_t n) { bytes_written_ += n; }

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
    zero_frame_.refs = 1;
  }

  Frame* obtain();
  void add_ref(Frame* f);
  void drop_ref(Frame* f);

  std::vector<std::unique_ptr<Frame[]>> slabs_;
  Frame* free_head_ = nullptr;
  // Slab frames [0, cursor_) in address order were handed out since the
  // pool last held no live frame; [cursor_, alloc_fallbacks_) are free
  // and off the free list.
  std::uint64_t cursor_ = 0;
  std::uint64_t live_ = 0;  // frames referenced by a handle

  std::uint64_t shared_pages_ = 0;
  std::uint64_t unshare_ops_ = 0;
  std::uint64_t alloc_fallbacks_ = 0;
  std::uint64_t copies_ = 0;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;

  Frame zero_frame_{};  // refs pinned at >= 1 by the pool
};

// --- BufferPool internals ----------------------------------------------

inline BufferPool::Frame* BufferPool::obtain() {
  Frame* f = free_head_;
  if (f != nullptr) {
    free_head_ = f->next_free;
  } else {
    if (cursor_ == alloc_fallbacks_) {
      if (cursor_ % kFramesPerSlab == 0) {
        slabs_.push_back(std::make_unique<Frame[]>(kFramesPerSlab));
      }
      ++alloc_fallbacks_;
    }
    f = &slabs_[cursor_ / kFramesPerSlab][cursor_ % kFramesPerSlab];
    ++cursor_;
  }
  ++live_;
  NETSTORE_DCHECK_EQ(f->refs, 0u);
  f->refs = 1;
  return f;
}

inline void BufferPool::add_ref(Frame* f) {
  // The 1 -> 2 transition is the frame becoming shared.
  if (f->refs++ == 1) ++shared_pages_;
}

inline void BufferPool::drop_ref(Frame* f) {
  NETSTORE_DCHECK_GT(f->refs, 0u);
  const std::uint32_t prior = f->refs--;
  if (prior == 2) {
    --shared_pages_;
  } else if (prior == 1) {
    // Last reference gone: recycle.  The zero frame never reaches here
    // because the pool's own reference pins it above zero.
    if (--live_ == 0) {
      // Every frame is free: drop the free list, whose order is the
      // history of the worlds that used it, and start over in address
      // order.
      free_head_ = nullptr;
      cursor_ = 0;
    } else {
      f->next_free = free_head_;
      free_head_ = f;
    }
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
  if (frame_->refs > 1) {
    BufferPool& pool = BufferPool::instance();
    Frame* fresh = pool.obtain();
    std::memcpy(fresh->data.data(), frame_->data.data(), block::kBlockSize);
    ++pool.unshare_ops_;
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
  return frame_ == nullptr ? 0u : frame_->refs;
}

}  // namespace netstore::core
