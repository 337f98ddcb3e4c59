// core::BufSlice / core::IoVec — sub-range views of pooled frames and the
// bounded scatter-gather vector the data plane moves between layers
// (DESIGN.md §17).
//
// A BufSlice is a refcounted BufRef plus a byte sub-range: holding one
// keeps the frame alive, and reading through it never copies.  An IoVec
// is a bounded inline vector of slices — the unit a VFS write crossing
// hands down (client pages in file order) instead of a staging buffer.
//
// This header also owns the *sanctioned copy helpers*.  Payload bytes
// cross layers as references; the only payload-sized memcpys are the two
// user-buffer boundary crossings, and they are charged here so
// pool.bytes_copied meters exactly what the data plane touches per byte:
//
//   copy_out      frame -> user read buffer   (charges bytes_read too)
//   copy_in       user write buffer -> frame  (charges bytes_written too)
//
// Invariant: every charged copy is a boundary crossing, so
// pool.bytes_copied == bytes_read + bytes_written exactly
// (tools/check_report.py enforces <= on every validated pool snapshot).
// Any other memcpy on frame memory is either semantically required and
// byte-small (ext3 metadata, sub-block merges, the NFS EOF tail —
// suppressed case by case) or a bug the raw-datapath-memcpy lint rule
// flags.
#pragma once

#include <cstdint>
#include <cstring>

#include "core/buffer_pool.h"
#include "core/check.h"

namespace netstore::core {

/// One sub-range of a pooled frame.  Holding the slice holds the frame.
struct BufSlice {
  BufRef buf;
  std::uint32_t off = 0;
  std::uint32_t len = 0;

  BufSlice() = default;
  BufSlice(BufRef b, std::uint32_t o, std::uint32_t l)
      : buf(std::move(b)), off(o), len(l) {
    NETSTORE_DCHECK_LE(static_cast<std::size_t>(off) + len,
                       block::kBlockSize);
  }

  [[nodiscard]] const std::uint8_t* data() const { return buf.data() + off; }
};

/// Bounded inline vector of slices — a scatter-gather payload view.  The
/// capacity covers the largest transfer a protocol hands down in one RPC
/// (32 KB at v4 = 8 blocks) with room for unaligned head/tail slices.
class IoVec {
 public:
  static constexpr std::size_t kMaxSlices = 16;

  IoVec() = default;

  void push_back(BufSlice s) {
    NETSTORE_CHECK_LT(size_, kMaxSlices);
    slices_[size_++] = std::move(s);
  }
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) slices_[i] = BufSlice{};
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const BufSlice& operator[](std::size_t i) const {
    NETSTORE_DCHECK_LT(i, size_);
    return slices_[i];
  }
  [[nodiscard]] const BufSlice* begin() const { return slices_; }
  [[nodiscard]] const BufSlice* end() const { return slices_ + size_; }

  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < size_; ++i) n += slices_[i].len;
    return n;
  }

 private:
  BufSlice slices_[kMaxSlices];
  std::size_t size_ = 0;
};

// --- the sanctioned copy helpers ----------------------------------------

/// Frame -> user read buffer: the one copy a warm read still performs.
inline void copy_out(void* dst, const void* src, std::size_t n) {
  std::memcpy(dst, src, n);
  BufferPool& pool = BufferPool::instance();
  pool.note_copy(n);
  pool.note_user_read(n);
}

/// User write buffer -> frame: the one copy a write still performs.
inline void copy_in(void* dst, const void* src, std::size_t n) {
  std::memcpy(dst, src, n);
  BufferPool& pool = BufferPool::instance();
  pool.note_copy(n);
  pool.note_user_write(n);
}

}  // namespace netstore::core
