// Fixture: payload movement that the raw-datapath-memcpy rule must NOT
// flag — sanctioned helpers, non-frame memcpys, and a suppressed
// semantically-required sub-payload copy.
#include <cstdint>
#include <cstring>

namespace netstore::corex {
struct BufRef {
  std::uint8_t* mutable_data();
  const std::uint8_t* data() const;
};
void copy_out(void* dst, const void* src, std::size_t n);
void copy_in(void* dst, const void* src, std::size_t n);
}  // namespace netstore::corex

namespace netstore::fsx {

void metered_read(const corex::BufRef& frame, std::uint8_t* user) {
  corex::copy_out(user, frame.data(), 4096);  // helper meters the copy
}

void metered_write(corex::BufRef& frame, const std::uint8_t* user) {
  corex::copy_in(frame.mutable_data(), user, 4096);
}

void plain_struct_copy(std::uint64_t* dst, const std::uint64_t* src) {
  std::memcpy(dst, src, sizeof(std::uint64_t));  // no frame memory involved
}

std::uint32_t indirect_entry(const corex::BufRef& frame, std::uint32_t slot) {
  std::uint32_t entry = 0;
  // 4-byte metadata load from a mapping block, not payload movement.
  // netstore-lint: allow(raw-datapath-memcpy)
  std::memcpy(&entry, frame.data() + slot * 4, 4);
  return entry;
}

}  // namespace netstore::fsx
