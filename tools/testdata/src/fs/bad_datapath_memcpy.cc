// Fixture: raw payload copies that bypass the data plane's copy metering.
//
//   bad line 1: memcpy out of a pooled frame (.data()) into a caller
//   buffer without core::copy_out — an unmetered boundary copy
//   (rule: raw-datapath-memcpy).
//
//   bad line 2: memcpy into frame memory via .mutable_data() without
//   core::copy_in (rule: raw-datapath-memcpy).
#include <cstdint>
#include <cstring>

namespace netstore::corex {
struct BufRef {
  std::uint8_t* mutable_data();
  const std::uint8_t* data() const;
};
}  // namespace netstore::corex

namespace netstore::fsx {

void leak_read(const corex::BufRef& frame, std::uint8_t* user) {
  std::memcpy(user, frame.data(), 4096);  // BAD: raw-datapath-memcpy
}

void leak_write(corex::BufRef& frame, const std::uint8_t* user) {
  std::memcpy(frame.mutable_data(), user, 4096);  // BAD: raw-datapath-memcpy
}

}  // namespace netstore::fsx
