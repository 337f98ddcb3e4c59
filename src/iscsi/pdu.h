// iSCSI PDU definitions (RFC 3720 subset).
//
// netstore models PDU framing for byte accounting: every PDU carries the
// 48-byte basic header segment (BHS) plus its data segment.
#pragma once

#include <cstdint>

namespace netstore::iscsi {

/// Basic Header Segment size (RFC 3720 §10.2).
constexpr std::uint32_t kBhsSize = 48;

/// Wire size of a PDU with `data_segment` payload bytes, including header
/// padding to a 4-byte boundary as the RFC requires.
constexpr std::uint32_t pdu_size(std::uint32_t data_segment) {
  return kBhsSize + ((data_segment + 3u) & ~3u);
}

}  // namespace netstore::iscsi
