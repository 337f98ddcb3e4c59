// Fixture: copy-on-write buffer-pool aliasing hazards.
//
//   bad line 1: the pointer from mutable_data() is stored; if the BufRef
//   is shared afterwards, the frame is un-shared and the stored
//   pointer keeps writing to the stale copy (rule: bufref-held).
//
//   bad line 2: naming core::detail::PoolFrame outside the pool
//   implementation bypasses refcounting and CoW entirely
//   (rule: poolframe-escape).
#include <cstdint>
#include <cstring>

namespace netstore::corex {
struct BufRef {
  char* mutable_data();
  const char* data() const;
};
namespace detail {
struct PoolFrame;
}  // namespace detail
}  // namespace netstore::corex

namespace netstore::fsx {

void stamp_header(corex::BufRef ref, std::uint64_t seq) {
  char* p = ref.mutable_data();  // BAD: bufref-held
  std::memcpy(p, &seq, sizeof(seq));
}

void stamp_header_inline(corex::BufRef ref, std::uint64_t seq) {
  // Used within the producing expression: fine.
  std::memcpy(ref.mutable_data(), &seq, sizeof(seq));
}

corex::detail::PoolFrame* steal_frame();  // BAD: poolframe-escape

}  // namespace netstore::fsx
